package experiments

import "testing"

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
