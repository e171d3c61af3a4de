package experiments

import (
	"testing"

	"neat/internal/sim"
	"neat/internal/steer"
)

// TestAttackContainment is the campaign's acceptance criterion: with the
// attack aimed at replica 0 under hash placement, the three clean replicas
// retain at least 90 % of their attack-free goodput, and the guard that
// defeats each attack actually engaged.
func TestAttackContainment(t *testing.T) {
	o := Options{Quick: true}
	base := attackRun(o, attackNone, steer.PolicyHash)
	if base.err != nil {
		t.Fatal(base.err)
	}
	if base.cleanKRPS <= 0 || base.total.Errors != 0 {
		t.Fatalf("attack-free cell unhealthy: %+v", base.total)
	}
	for _, kind := range []attackKind{attackSlowloris, attackSynFlood, attackChurn} {
		out := attackRun(o, kind, steer.PolicyHash)
		if out.err != nil {
			t.Fatalf("%v: %v", kind, out.err)
		}
		if out.cleanKRPS < 0.9*base.cleanKRPS {
			t.Fatalf("%v: clean replicas retained %.1f of %.1f krps (< 90%%)",
				kind, out.cleanKRPS, base.cleanKRPS)
		}
		switch kind {
		case attackSlowloris:
			if out.guard.SlowlorisReaped == 0 {
				t.Fatalf("%v: header-progress guard never reaped", kind)
			}
		case attackSynFlood:
			if out.guard.SynShed == 0 {
				t.Fatalf("%v: bounded SYN backlog never shed", kind)
			}
			if out.guard.DroppedSynBacklog != 0 {
				t.Fatalf("%v: listener backlog overflowed %d times despite the guard",
					kind, out.guard.DroppedSynBacklog)
			}
		}
	}
}

// TestSynCookieOffload is the handshake-offload acceptance criterion: under
// a flood hot enough to defeat backlog shedding, stateless cookies leave the
// victim's PCB table free of embryonic entries and win back goodput on the
// attacked replica.
func TestSynCookieOffload(t *testing.T) {
	o := Options{Quick: true}
	shed := attackGuard()
	shed.SynBacklog = 16
	cookie := shed
	cookie.SynCookies = true
	cookie.SynCookieWatermark = -1
	tune := attackTuning{floodBurst: 4, floodInterval: 25 * sim.Microsecond}

	a := attackRunGuard(o, attackSynFlood, steer.PolicyHash, shed, tune)
	b := attackRunGuard(o, attackSynFlood, steer.PolicyHash, cookie, tune)
	if a.err != nil || b.err != nil {
		t.Fatalf("errs: %v / %v", a.err, b.err)
	}
	if b.embryonic != 0 {
		t.Fatalf("cookies left %d embryonic PCBs on the victim", b.embryonic)
	}
	if a.embryonic == 0 {
		t.Fatal("shed baseline shows no embryonic pressure — the flood never engaged")
	}
	if b.guard.SynCookiesSent == 0 || b.guard.SynCookiesValidated == 0 {
		t.Fatalf("cookie path inactive: %+v", b.guard)
	}
	if b.attackedKRPS < 2*a.attackedKRPS || b.attackedKRPS <= 0 {
		t.Fatalf("cookies did not improve attacked-replica goodput: %.1f vs %.1f krps",
			b.attackedKRPS, a.attackedKRPS)
	}
	if b.total.Errors >= a.total.Errors {
		t.Fatalf("cookie cell errors %d not below shed cell %d", b.total.Errors, a.total.Errors)
	}
}
