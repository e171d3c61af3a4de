package tcpeng

import (
	"strings"
	"testing"

	"neat/internal/sim"
)

// TestGuardConfigValidate is the range table of the guard knobs, beside
// their one declaration: every layer above calls this Validate.
func TestGuardConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		g       GuardConfig
		wantErr string // empty = valid
	}{
		{"zero", GuardConfig{}, ""},
		{"all-set", GuardConfig{SynBacklog: 32, HeaderDeadline: 5 * sim.Millisecond, HeaderMinBytes: 16,
			IdleDeadline: sim.Second, SynCookies: true, SynCookieWatermark: 8}, ""},
		{"cookies-for-every-syn", GuardConfig{SynCookies: true, SynCookieWatermark: -1}, ""},
		{"negative-backlog", GuardConfig{SynBacklog: -1}, "SynBacklog"},
		{"negative-header-deadline", GuardConfig{HeaderDeadline: -1}, "HeaderDeadline"},
		{"negative-header-floor", GuardConfig{HeaderDeadline: sim.Millisecond, HeaderMinBytes: -1}, "HeaderMinBytes"},
		{"floor-without-deadline", GuardConfig{HeaderMinBytes: 64}, "only applies with a deadline"},
		{"negative-idle-deadline", GuardConfig{IdleDeadline: -1}, "IdleDeadline"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.g.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}
