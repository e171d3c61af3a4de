package tcpeng

import (
	"math/rand"
	"strings"
	"testing"

	"neat/internal/proto"
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

// shedEnv is the Env of a lone server engine driven segment by segment: it
// keeps the ISN of each SYN|ACK it is asked to send, keyed by the client
// port, and the IDs of the PCBs the engine removes. Its timers never fire,
// so an abandoned handshake stays in SYN_RCVD until the guard sheds it.
type shedEnv struct {
	rng      *rand.Rand
	iss      map[uint16]uint32
	accepted []*Conn
	removed  []uint64
}

func (e *shedEnv) Now() sim.Time { return 0 }
func (e *shedEnv) SendSegment(c *Conn, seg OutSegment) {
	if seg.Hdr.Flags == proto.TCPSyn|proto.TCPAck {
		e.iss[seg.Hdr.DstPort] = seg.Hdr.Seq
	}
}
func (e *shedEnv) ArmTimer(*Conn, TimerKind, sim.Time) {}
func (e *shedEnv) StopTimer(*Conn, TimerKind)          {}
func (e *shedEnv) Accepted(c *Conn)                    { e.accepted = append(e.accepted, c) }
func (e *shedEnv) Connected(*Conn)                     {}
func (e *shedEnv) DataReadable(*Conn)                  {}
func (e *shedEnv) SendSpace(*Conn)                     {}
func (e *shedEnv) ConnClosed(*Conn, bool)              {}
func (e *shedEnv) ConnRemoved(c *Conn)                 { e.removed = append(e.removed, c.ID) }
func (e *shedEnv) RandUint32() uint32                  { return e.rng.Uint32() }

// TestSynShedOldestFirstUnderChurn checks the guard's oldest-first shedding
// against a reference list while handshakes complete, get reset and are
// abandoned in a seeded mix. Floods (mostly abandoned) alternate with calm
// spells (mostly completed), so a calm spell leaves long runs of departed
// connections behind an abandoned one. Every shed victim must be the oldest
// connection still in SYN_RCVD, and the listener's arrival queue must stay
// within twice the embryonic count plus its compaction floor. Completed
// connections are accepted and aborted at once, so PCBs recycle under the
// queue's stale entries. The queue's array must stay bounded too, however
// much shedding eats from its front.
func TestSynShedOldestFirstUnderChurn(t *testing.T) {
	const (
		backlog = 8
		syns    = 10_000
		spell   = 500 // SYNs per flood or calm spell
	)
	cli, srv := proto.IPv4(10, 0, 0, 1), proto.IPv4(10, 0, 0, 2)
	env := &shedEnv{rng: rand.New(rand.NewSource(1)), iss: map[uint16]uint32{}}
	cfg := defCfg()
	cfg.Guard.SynBacklog = backlog
	e := NewEngine(env, srv, cfg)
	l, _ := e.Listen(proto.Addr{}, 80, 64)
	segment := func(port uint16, flags uint8, seq, ack uint32) *proto.Frame {
		return &proto.Frame{
			IP:  &proto.IPv4Header{Src: cli, Dst: srv},
			TCP: &proto.TCPHeader{SrcPort: port, DstPort: 80, Flags: flags, Seq: seq, Ack: ack, Window: 0xffff},
		}
	}
	cliISS := func(port uint16) uint32 { return uint32(port) * 7919 }

	type fate uint8
	const (
		abandon fate = iota
		complete
		reset
	)
	type handshake struct {
		port uint16
		id   uint64
		fate fate
	}
	var ref []handshake // every connection in SYN_RCVD, oldest first
	rng := rand.New(rand.NewSource(7))
	var sent, shed, completed, resets int
	for sent < syns {
		// The next action: a new SYN, or the completion or reset of a
		// handshake still waiting for one.
		var waiting []int
		for i, hs := range ref {
			if hs.fate != abandon {
				waiting = append(waiting, i)
			}
		}
		env.removed = env.removed[:0]
		if len(waiting) == 0 || rng.Intn(2) == 0 {
			port := uint16(1024 + sent)
			abandonP := 0.7
			if (sent/spell)%2 == 1 {
				abandonP = 0.03
			}
			f := abandon
			if rng.Float64() >= abandonP {
				f = complete + fate(rng.Intn(3)/2) // complete twice as often as reset
			}
			before := e.Stats().SynShed
			e.Input(segment(port, proto.TCPSyn, cliISS(port), 0))
			sent++
			if e.Stats().SynShed != before {
				shed++
				if len(ref) == 0 || len(env.removed) != 1 || env.removed[0] != ref[0].id {
					t.Fatalf("SYN %d shed PCBs %v, want the oldest embryonic (reference %v)", sent, env.removed, ref)
				}
				ref = ref[1:]
			} else if len(env.removed) != 0 {
				t.Fatalf("SYN %d removed %v without shedding", sent, env.removed)
			}
			c := e.conns[connKey{localAddr: srv, localPort: 80, remoteAddr: cli, remotePort: port}]
			if c == nil || c.State() != StateSynRcvd {
				t.Fatalf("SYN %d made no embryonic connection", sent)
			}
			ref = append(ref, handshake{port: port, id: c.ID, fate: f})
		} else {
			i := waiting[rng.Intn(len(waiting))]
			hs := ref[i]
			ref = append(ref[:i], ref[i+1:]...)
			if hs.fate == complete {
				e.Input(segment(hs.port, proto.TCPAck, cliISS(hs.port)+1, env.iss[hs.port]+1))
				if len(env.accepted) != 1 || env.accepted[0].ID != hs.id || l.Accept() != env.accepted[0] {
					t.Fatalf("handshake of conn %d did not complete", hs.id)
				}
				env.accepted[0].Abort()
				env.accepted = env.accepted[:0]
				completed++
			} else {
				e.Input(segment(hs.port, proto.TCPRst, cliISS(hs.port)+1, 0))
				resets++
			}
			if len(env.removed) != 1 || env.removed[0] != hs.id {
				t.Fatalf("closing conn %d removed %v", hs.id, env.removed)
			}
		}
		if l.embryonic != len(ref) {
			t.Fatalf("after SYN %d: listener counts %d embryonic, reference %d", sent, l.embryonic, len(ref))
		}
		if q := len(l.embQ) - l.embHead; q > 2*l.embryonic+embQueueFloor {
			t.Fatalf("after SYN %d: %d queued for %d embryonic", sent, q, l.embryonic)
		}
		// Shedding consumes the front of the array; the space it frees
		// must be reused, not left behind while the array grows.
		if c := cap(l.embQ); c > 4*(2*backlog+embQueueFloor) {
			t.Fatalf("after SYN %d: queue array grew to %d entries", sent, c)
		}
	}
	if shed < syns/10 || completed < syns/10 || resets < syns/20 {
		t.Fatalf("mix too thin: %d shed, %d completed, %d reset", shed, completed, resets)
	}
	t.Logf("%d SYNs: %d shed, %d completed, %d reset; queue array %d entries", sent, shed, completed, resets, cap(l.embQ))
}
