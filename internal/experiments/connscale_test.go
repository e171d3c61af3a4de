package experiments

import "testing"

// TestConnScaleSmallRung checks the bed itself at a small rung: every
// requested connection establishes, the wheel holds exactly the live timers
// (one idle guard per connection) while the pending events stay few, and
// PDES reproduces the sequential digest.
func TestConnScaleSmallRung(t *testing.T) {
	const conns = 768
	seq := connScaleRun(7, conns, 0)
	if seq.Established != conns {
		t.Fatalf("established %d of %d", seq.Established, conns)
	}
	if seq.PendingTimers != conns {
		t.Fatalf("%d resident timers, want %d idle guards", seq.PendingTimers, conns)
	}
	if seq.PendingEvents >= conns/2 {
		t.Fatalf("%d events pending — timers are being counted as events", seq.PendingEvents)
	}

	pdes := connScaleRun(7, conns, 2)
	if pdes.Established != conns {
		t.Fatalf("pdes: established %d of %d", pdes.Established, conns)
	}
	if pdes.digest != seq.digest {
		t.Fatalf("digest mismatch: seq=%s pdes2=%s", seq.digest, pdes.digest)
	}
}

func TestConnScaleQuickLadderReport(t *testing.T) {
	res := ConnScale(Options{Quick: true, Seed: 11})
	if len(res.Tables) != 1 {
		t.Fatalf("tables: %d", len(res.Tables))
	}
	if rows := len(res.Tables[0].Rows); rows != 2 { // one per rung
		t.Fatalf("rows: %d", rows)
	}
	for _, p := range connScaleLadder(Options{Quick: true, Seed: 11}, []int{600}) {
		if !p.PDESIdentical {
			t.Fatal("rung not PDES-identical")
		}
		if p.Established != 600 {
			t.Fatalf("rung established %d of 600", p.Established)
		}
	}
}

// BenchmarkMillionConns is the headline number: one replica's TCP engine
// holding a million established connections, each with an armed idle-guard
// timer, while the simulator's pending events stay effectively none.
// Run with -benchtime=1x; one iteration is one full establishment storm.
func BenchmarkMillionConns(b *testing.B) {
	const conns = 1_000_000
	for i := 0; i < b.N; i++ {
		p := connScaleRun(int64(42+i), conns, 0)
		if p.Established != conns {
			b.Fatalf("established %d of %d", p.Established, conns)
		}
		if p.PendingTimers != conns {
			b.Fatalf("resident timers %d, want %d", p.PendingTimers, conns)
		}
		// The point of the wheel: pending events are O(levels), not
		// O(conns). 1024 is generous — typically it is single digits.
		if p.PendingEvents >= 1024 {
			b.Fatalf("%d events pending with %d armed timers", p.PendingEvents, conns)
		}
		if p.Cascades == 0 {
			b.Fatal("no cascades: the ladder never exercised upper wheel levels")
		}
		b.ReportMetric(float64(p.PendingEvents), "pending-events")
		b.ReportMetric(p.BytesPerConn, "B/conn")
		b.ReportMetric(float64(p.Cascades), "cascades")
	}
}
