package experiments

import (
	"crypto/md5"
	"testing"
)

// TestBreakdownDeterminism is the acceptance gate for the tracing layer:
// the per-hop latency breakdown must be byte-identical between a
// sequential and a parallel sweep (same seed), i.e. tracing must not
// perturb simulation order and parallel assembly must be deterministic.
// The md5 comparison mirrors how the -breakdown CLI output is checked.
func TestBreakdownDeterminism(t *testing.T) {
	seq := LatencyBreakdown(Options{Quick: true}).String()
	par := LatencyBreakdown(Options{Quick: true, Workers: 4}).String()
	if seq != par {
		t.Fatalf("breakdown differs between sequential (md5 %x) and parallel (md5 %x) runs:\n--- sequential ---\n%s\n--- parallel ---\n%s",
			md5.Sum([]byte(seq)), md5.Sum([]byte(par)), seq, par)
	}
	if len(seq) == 0 {
		t.Fatal("empty breakdown report")
	}
}

// TestBreakdownHasServerHops sanity-checks the traced table contents:
// every layer of the server path must appear.
func TestBreakdownHasServerHops(t *testing.T) {
	out := LatencyBreakdown(Options{Quick: true}).String()
	for _, hop := range []string{"wire.dir0", "amd.nic.rxq0", "amd.nicdrv", "amd.syscall", "amd.lighttpd0"} {
		if !contains(out, hop) {
			t.Fatalf("breakdown lacks hop %q:\n%s", hop, out)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
