package tcpeng

import (
	"testing"

	"neat/internal/proto"
	"neat/internal/sim"
)

// The fake environment of harness_test.go keeps its own timers, so nothing
// there touches sim.Timer. These tests run two engines on a real simulator —
// one process each, ConnTimer nodes armed through Context.Retimer exactly as
// the stack and the conn-scale beds arm them — to check what PCB recycling
// relies on: a PCB returns to the pool with every timer out of the wheel,
// whichever way its connection ended.

type simHost struct {
	s      *sim.Simulator
	proc   *sim.Proc
	ctx    *sim.Context
	peer   *simHost
	engine *Engine
	isn    uint32

	connected []*Conn
	accepted  []*Conn
}

func (h *simHost) HandleMessage(ctx *sim.Context, msg sim.Message) {
	h.ctx = ctx
	switch m := msg.(type) {
	case []byte:
		if f, err := proto.DecodeFrame(m); err == nil {
			h.engine.Input(f)
		}
	case *ConnTimer:
		h.engine.OnTimer(m.C, m.Kind)
	case func():
		m()
	}
	h.ctx = nil
}

func (h *simHost) Now() sim.Time { return h.s.Now() }

func (h *simHost) SendSegment(c *Conn, seg OutSegment) {
	h.ctx.Charge(200)
	h.ctx.SendDelayed(h.peer.proc, proto.BuildTCP(
		proto.EthernetHeader{Type: proto.EtherTypeIPv4},
		proto.IPv4Header{TTL: 64, Src: seg.Src, Dst: seg.Dst},
		seg.Hdr, seg.Payload), 5*sim.Microsecond)
}

func (h *simHost) ArmTimer(c *Conn, k TimerKind, d sim.Time) {
	t := &c.Timers[k]
	h.ctx.Retimer(&t.Timer, d, t)
}

func (h *simHost) StopTimer(c *Conn, k TimerKind) { c.Timers[k].Stop() }

func (h *simHost) Accepted(c *Conn) { h.accepted = append(h.accepted, c.Listener.Accept()) }

func (h *simHost) Connected(c *Conn) { h.connected = append(h.connected, c) }

// DataReadable closes passively: once the peer's FIN is in, send ours.
func (h *simHost) DataReadable(c *Conn) {
	c.Recv(0)
	if c.EOF() {
		c.Close()
	}
}

func (h *simHost) SendSpace(c *Conn)            {}
func (h *simHost) ConnClosed(c *Conn, rst bool) {}
func (h *simHost) ConnRemoved(c *Conn)          {}
func (h *simHost) RandUint32() uint32           { h.isn += 0x9e3779b9; return h.isn }

type simRig struct {
	s        *sim.Simulator
	cli, srv *simHost
}

const simRigPort = 80

func newSimRig(t *testing.T, srvCfg Config) *simRig {
	s := sim.New(1)
	m := sim.NewMachine(s, "m", 2, 1, 2_000_000_000)
	r := &simRig{s: s, cli: &simHost{s: s}, srv: &simHost{s: s}}
	r.cli.peer, r.srv.peer = r.srv, r.cli
	r.cli.proc = sim.NewProc(m.Thread(0, 0), "cli", r.cli, sim.ProcConfig{})
	r.srv.proc = sim.NewProc(m.Thread(1, 0), "srv", r.srv, sim.ProcConfig{})
	r.cli.engine = NewEngine(r.cli, proto.IPv4(10, 0, 0, 2), DefaultConfig())
	r.srv.engine = NewEngine(r.srv, proto.IPv4(10, 0, 0, 1), srvCfg)
	if _, err := r.srv.engine.Listen(proto.Addr{}, simRigPort, 1<<16); err != nil {
		t.Fatal(err)
	}
	return r
}

// onClient runs fn inside a dispatch of the client process, then lets the
// simulation run for d.
func (r *simRig) onClient(d sim.Time, fn func()) {
	r.cli.proc.Deliver(fn)
	r.s.RunFor(d)
}

// open establishes n connections and returns the client ends.
func (r *simRig) open(t *testing.T, n int) []*Conn {
	t.Helper()
	r.cli.connected = r.cli.connected[:0]
	before := r.srv.engine.NumEstablished()
	r.onClient(2*sim.Millisecond, func() {
		for i := 0; i < n; i++ {
			if _, err := r.cli.engine.Connect(r.srv.engine.Addr(), simRigPort); err != nil {
				t.Fatal(err)
			}
		}
	})
	if len(r.cli.connected) != n || r.srv.engine.NumEstablished()-before != n {
		t.Fatalf("established %d client / %d server ends of %d",
			len(r.cli.connected), r.srv.engine.NumEstablished()-before, n)
	}
	return append([]*Conn(nil), r.cli.connected...)
}

// settled checks that both engines hold no connection and that the wheel
// holds no timer for the PCBs they pooled.
func (r *simRig) settled(t *testing.T, after string) {
	t.Helper()
	for _, h := range []*simHost{r.cli, r.srv} {
		if n := h.engine.NumConns(); n != 0 {
			t.Fatalf("after %s: %s holds %d connections", after, h.proc.Name, n)
		}
	}
	if got := r.s.TimerStats().Pending; got != 0 {
		t.Fatalf("after %s: %d timers resident with no connection alive", after, got)
	}
}

// TestPCBRecycleAfterEveryClose ends connections by RST, by the idle guard's
// reap and by TIME_WAIT expiry, reusing the pooled PCBs for each next round:
// newConn panics if one comes back with a timer still armed.
func TestPCBRecycleAfterEveryClose(t *testing.T) {
	const n = 64
	cfg := DefaultConfig()
	cfg.Guard.IdleDeadline = 20 * sim.Millisecond
	r := newSimRig(t, cfg)

	conns := r.open(t, n)
	if got := r.s.TimerStats().Pending; got != n {
		t.Fatalf("%d timers resident, want the %d idle guards", got, n)
	}
	r.onClient(sim.Millisecond, func() {
		for _, c := range conns {
			c.Abort()
		}
	})
	r.settled(t, "RST")

	r.open(t, n)
	r.s.RunFor(2 * cfg.Guard.IdleDeadline) // the server reaps every idle connection
	if got := r.srv.engine.Stats().SlowlorisReaped; got != n {
		t.Fatalf("guard reaped %d of %d", got, n)
	}
	r.settled(t, "guard reap")

	conns = r.open(t, n)
	r.onClient(sim.Millisecond, func() {
		for _, c := range conns {
			c.Close()
		}
	})
	if got := r.s.TimerStats().Pending; got != n {
		t.Fatalf("%d timers resident, want the %d TIME_WAIT timers", got, n)
	}
	r.s.RunFor(2 * timeWait)
	r.settled(t, "TIME_WAIT expiry")

	r.open(t, n)
	for _, h := range []*simHost{r.cli, r.srv} {
		if ps := h.engine.PoolStats(); ps.Reused != 3*n || ps.FreeConns != 0 {
			t.Fatalf("%s: %+v, want each of %d PCBs recycled three times", h.proc.Name, ps, n)
		}
	}
}

// TestIdleGuardCountsBareACKs is the false-positive check of the idle guard:
// a server connection streaming a long response to a peer that sends nothing
// but ACKs is active, so it outlives the deadline several times over; once
// the peer goes silent it is reaped within two deadlines.
func TestIdleGuardCountsBareACKs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Guard.IdleDeadline = 5 * sim.Millisecond
	r := newSimRig(t, cfg)
	r.open(t, 1)
	srv := r.srv.accepted[0]

	const every = 250 * sim.Microsecond
	chunk := make([]byte, 2048)
	for at := sim.Time(0); at < 3*cfg.Guard.IdleDeadline; at += every {
		r.srv.proc.Deliver(func() { srv.Send(chunk) })
		r.s.RunFor(every)
	}
	if got := r.srv.engine.Stats().SlowlorisReaped; got != 0 || srv.State() != StateEstablished {
		t.Fatalf("guard reaped %d streaming connections (state %v)", got, srv.State())
	}
	cli := r.cli.engine.Stats()
	if cli.DataBytesOut != 0 || cli.DataBytesIn < 50*uint64(len(chunk)) {
		t.Fatalf("client sent %d data bytes and received %d: want a pure-ACK peer of a long stream",
			cli.DataBytesOut, cli.DataBytesIn)
	}

	r.s.RunFor(2 * cfg.Guard.IdleDeadline)
	if got := r.srv.engine.Stats().SlowlorisReaped; got != 1 {
		t.Fatalf("guard reaped %d silent connections within two deadlines, want 1", got)
	}
}

// TestRecycledPCBWithArmedTimerPanics plants the bug the guard exists for.
func TestRecycledPCBWithArmedTimerPanics(t *testing.T) {
	r := newSimRig(t, DefaultConfig())
	conns := r.open(t, 1)
	r.onClient(sim.Millisecond, func() { conns[0].Abort() })
	r.settled(t, "RST")
	defer func() {
		if recover() == nil {
			t.Fatal("newConn recycled a PCB whose timer is armed")
		}
	}()
	r.onClient(sim.Millisecond, func() {
		r.cli.ArmTimer(conns[0], TimerPersist, sim.Second) // stale handle, pooled PCB
	})
	r.open(t, 1)
}

// TestTimersDrainAfterConnScaleRun is a connection-scale run in miniature:
// thousands of lifecycles in overlapping batches, every connection closed
// in order and TIME_WAIT drained. Along the way the wheel may hold at most
// the timers a live PCB can have armed; at the end it must hold none.
func TestTimersDrainAfterConnScaleRun(t *testing.T) {
	const (
		batches = 16
		batch   = 256
	)
	cfg := DefaultConfig()
	cfg.Guard.IdleDeadline = 30 * sim.Second
	r := newSimRig(t, cfg)
	var prev []*Conn
	for i := 0; i <= batches; i++ {
		closing := prev
		if i < batches {
			prev = r.open(t, batch)
		}
		r.onClient(sim.Millisecond, func() {
			for _, c := range closing {
				c.Close()
			}
		})
		live := r.cli.engine.NumConns() + r.srv.engine.NumConns()
		if got := r.s.TimerStats().Pending; got > live*int(NumTimers) {
			t.Fatalf("batch %d: %d timers resident for %d live PCBs", i, got, live)
		}
	}
	r.s.RunFor(2 * timeWait)
	r.settled(t, "closing everything")
	if ts := r.s.TimerStats(); ts.Fired != batches*batch {
		t.Fatalf("wheel popped %d entries, want one TIME_WAIT expiry per connection (%d)", ts.Fired, batches*batch)
	}
}
