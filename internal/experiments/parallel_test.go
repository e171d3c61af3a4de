package experiments

import (
	"testing"
)

// TestParallelRunner checks that results land at their own indices no
// matter how many workers race over the work list.
func TestParallelRunner(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 7, 32} {
		got := RunParallel(100, workers, func(i int) int { return i * i })
		if len(got) != 100 {
			t.Fatalf("workers=%d: len=%d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d]=%d, want %d", workers, i, v, i*i)
			}
		}
	}
	if out := RunParallel(0, 4, func(i int) int { return i }); len(out) != 0 {
		t.Fatalf("n=0: len=%d", len(out))
	}
}

// TestParallelDeterminism is the regression gate for the concurrent sweep
// runner: a full experiment driver must produce byte-identical reports
// run-to-run sequentially AND when its points are measured concurrently.
// Each sweep point owns its Simulator and RNG (seeded from the config), so
// scheduling must not leak into the results; run under -race this also
// proves the beds share no mutable state.
func TestParallelDeterminism(t *testing.T) {
	seq := Options{Quick: true}
	seq1 := Table1(seq).String()
	seq2 := Table1(seq).String()
	if seq1 != seq2 {
		t.Fatalf("sequential runs differ:\n--- first\n%s\n--- second\n%s", seq1, seq2)
	}
	par := Table1(Options{Quick: true, Workers: 3}).String()
	if par != seq1 {
		t.Fatalf("parallel run differs from sequential:\n--- sequential\n%s\n--- parallel\n%s", seq1, par)
	}
}
