package experiments

import (
	"strings"
	"testing"
)

// TestSteeringDeterminism gates the steering campaign on the repo's
// byte-identity oracle: the rendered report must be identical run-to-run
// and between sequential and concurrent sweep execution. Each cell builds
// its own bed from the same explicit seed, so scheduling must not leak
// into the tables.
func TestSteeringDeterminism(t *testing.T) {
	seq := Options{Quick: true}
	seq1 := SteeringSkew(seq).String()
	seq2 := SteeringSkew(seq).String()
	if seq1 != seq2 {
		t.Fatalf("sequential runs differ:\n--- first\n%s\n--- second\n%s", seq1, seq2)
	}
	par := SteeringSkew(Options{Quick: true, Workers: 3}).String()
	if par != seq1 {
		t.Fatalf("parallel run differs from sequential:\n--- sequential\n%s\n--- parallel\n%s", seq1, par)
	}
}

// TestSteeringSkewReport sanity-checks the campaign's content: every
// policy appears under both workloads and the beds measured real traffic.
func TestSteeringSkewReport(t *testing.T) {
	out := SteeringSkew(Options{Quick: true}).String()
	for _, want := range []string{"uniform", "skewed", "hash", "ring", "least-loaded"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "bed failed") || strings.Contains(out, " - ") && strings.Contains(out, "error") {
		t.Fatalf("a cell failed:\n%s", out)
	}
}
