package experiments

import (
	"strings"
	"testing"
)

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
