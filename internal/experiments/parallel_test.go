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

// TestCampaignDeterminism is the byte-identity oracle over the campaign
// table: a report must render the same bytes run to run, and when its
// sweep points are measured concurrently. Each sweep point owns its
// Simulator and RNG (seeded from the config), so scheduling must not leak
// into the results; under -race this also proves the beds share no
// mutable state.
func TestCampaignDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name    string
		twice   bool // compare two sequential runs
		workers int  // compare a run on this many workers with the sequential one (0: none)
	}{
		{"table1", true, 3},
		{"breakdown", false, 4}, // tracing must not perturb simulation order
		{"steering", true, 3},
		{"matrix", false, 4},
		{"cluster", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var run func(Options) *Result
			for _, c := range Campaigns {
				if c.Name == tc.name {
					run = c.Run
				}
			}
			if run == nil {
				t.Fatalf("no campaign %q", tc.name)
			}
			seq := run(Options{Quick: true}).String()
			if tc.twice {
				if again := run(Options{Quick: true}).String(); again != seq {
					t.Fatalf("sequential runs differ:\n--- first\n%s\n--- second\n%s", seq, again)
				}
			}
			if tc.workers > 0 {
				if par := run(Options{Quick: true, Workers: tc.workers}).String(); par != seq {
					t.Fatalf("%d-worker run differs from sequential:\n--- sequential\n%s\n--- parallel\n%s", tc.workers, seq, par)
				}
			}
		})
	}
}
