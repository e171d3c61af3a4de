package sysserver

import (
	"testing"

	"neat/internal/ipc"
	"neat/internal/proto"
	"neat/internal/sim"
	"neat/internal/stack"
)

// fakeMgr is a scripted Manager.
type fakeMgr struct {
	connectTargets []*sim.Proc
	listenTargets  []*sim.Proc
	udpTarget      *sim.Proc
	registered     []stack.OpListen
	next           int
}

func (m *fakeMgr) ConnectTarget() *sim.Proc {
	if len(m.connectTargets) == 0 {
		return nil
	}
	t := m.connectTargets[m.next%len(m.connectTargets)]
	m.next++
	return t
}
func (m *fakeMgr) ListenTargets() []*sim.Proc       { return m.listenTargets }
func (m *fakeMgr) UDPTarget() *sim.Proc             { return m.udpTarget }
func (m *fakeMgr) RegisterListen(op stack.OpListen) { m.registered = append(m.registered, op) }
func (m *fakeMgr) UnregisterListen(reqID uint64) {
	for i, op := range m.registered {
		if op.ReqID == reqID {
			m.registered = append(m.registered[:i], m.registered[i+1:]...)
			return
		}
	}
}

// recorder collects delivered messages.
type recorder struct {
	proc *sim.Proc
	got  []sim.Message
}

func newRecorder(th *sim.HWThread, name string) *recorder {
	r := &recorder{}
	r.proc = sim.NewProc(th, name, sim.HandlerFunc(func(ctx *sim.Context, msg sim.Message) {
		r.got = append(r.got, msg)
	}), sim.ProcConfig{})
	return r
}

func setup(t *testing.T, replicas int) (*sim.Simulator, *Server, *fakeMgr, []*recorder, *recorder) {
	t.Helper()
	s := sim.New(1)
	m := sim.NewMachine(s, "m", 3+replicas, 1, 1_000_000_000)
	mgr := &fakeMgr{}
	var reps []*recorder
	for i := 0; i < replicas; i++ {
		r := newRecorder(m.Thread(2+i, 0), "replica")
		reps = append(reps, r)
		mgr.listenTargets = append(mgr.listenTargets, r.proc)
		mgr.connectTargets = append(mgr.connectTargets, r.proc)
	}
	if replicas > 0 {
		mgr.udpTarget = reps[0].proc
	}
	srv := New(m.Thread(0, 0), mgr, ipc.DefaultCosts())
	app := newRecorder(m.Thread(1, 0), "app")
	return s, srv, mgr, reps, app
}

func TestListenFanOutAndAggregation(t *testing.T) {
	s, srv, mgr, reps, app := setup(t, 3)
	srv.Proc().Deliver(stack.OpListen{App: app.proc, ReqID: 11, Port: 80, Backlog: 8})
	s.RunFor(sim.Millisecond)

	// Fanned out to every replica, with ReplyTo pointing at the server.
	for i, r := range reps {
		if len(r.got) != 1 {
			t.Fatalf("replica %d got %d ops", i, len(r.got))
		}
		op := r.got[0].(stack.OpListen)
		if op.ReplyTo != srv.Proc() || op.App != app.proc || op.ReqID != 11 {
			t.Fatalf("fanned op: %+v", op)
		}
	}
	if len(mgr.registered) != 1 {
		t.Fatal("listen not registered for replay")
	}
	// No ack to the app until all replicas answered.
	if len(app.got) != 0 {
		t.Fatalf("premature ack: %v", app.got)
	}
	srv.Proc().Deliver(stack.EvListening{ReqID: 11})
	srv.Proc().Deliver(stack.EvListening{ReqID: 11})
	s.RunFor(sim.Millisecond)
	if len(app.got) != 0 {
		t.Fatal("acked before last replica")
	}
	srv.Proc().Deliver(stack.EvListening{ReqID: 11})
	s.RunFor(sim.Millisecond)
	if len(app.got) != 1 {
		t.Fatalf("app acks: %v", app.got)
	}
	if ev := app.got[0].(stack.EvListening); ev.ReqID != 11 || ev.Err != nil {
		t.Fatalf("ack: %+v", ev)
	}
	if srv.Stats().Listens != 1 {
		t.Fatalf("stats: %+v", srv.Stats())
	}
}

func TestListenErrorPropagates(t *testing.T) {
	s, srv, _, _, app := setup(t, 2)
	srv.Proc().Deliver(stack.OpListen{App: app.proc, ReqID: 5, Port: 80})
	s.RunFor(sim.Millisecond)
	srv.Proc().Deliver(stack.EvListening{ReqID: 5, Err: stack.ErrNoReplicas})
	srv.Proc().Deliver(stack.EvListening{ReqID: 5})
	s.RunFor(sim.Millisecond)
	if len(app.got) != 1 {
		t.Fatal("no ack")
	}
	if ev := app.got[0].(stack.EvListening); ev.Err == nil {
		t.Fatal("error swallowed")
	}
}

func TestStrayListenAckIgnored(t *testing.T) {
	s, srv, _, _, _ := setup(t, 1)
	// A replayed listen (after recovery) acks a request the server already
	// resolved; it must be dropped silently.
	srv.Proc().Deliver(stack.EvListening{ReqID: 999})
	s.RunFor(sim.Millisecond)
}

func TestConnectRoutesToReplica(t *testing.T) {
	s, srv, _, reps, app := setup(t, 2)
	srv.Proc().Deliver(stack.OpConnect{App: app.proc, ReqID: 1, Addr: proto.IPv4(10, 0, 0, 9), Port: 80})
	srv.Proc().Deliver(stack.OpConnect{App: app.proc, ReqID: 2, Addr: proto.IPv4(10, 0, 0, 9), Port: 80})
	s.RunFor(sim.Millisecond)
	total := len(reps[0].got) + len(reps[1].got)
	if total != 2 {
		t.Fatalf("forwarded %d connects", total)
	}
	if srv.Stats().Connects != 2 {
		t.Fatalf("stats: %+v", srv.Stats())
	}
}

func TestNoReplicasErrors(t *testing.T) {
	s, srv, _, _, app := setup(t, 0)
	srv.Proc().Deliver(stack.OpConnect{App: app.proc, ReqID: 3, Port: 80})
	srv.Proc().Deliver(stack.OpListen{App: app.proc, ReqID: 4, Port: 81})
	srv.Proc().Deliver(stack.OpUDPBind{App: app.proc, ReqID: 5, Port: 53})
	s.RunFor(sim.Millisecond)
	if len(app.got) != 3 {
		t.Fatalf("acks: %v", app.got)
	}
	if ev := app.got[0].(stack.EvConnected); ev.Err != stack.ErrNoReplicas {
		t.Fatalf("connect err: %+v", ev)
	}
	if ev := app.got[1].(stack.EvListening); ev.Err != stack.ErrNoReplicas {
		t.Fatalf("listen err: %+v", ev)
	}
	if ev := app.got[2].(stack.EvUDPBound); ev.Err != stack.ErrNoReplicas {
		t.Fatalf("udp err: %+v", ev)
	}
}

func TestCloseListenerFansOutAndUnregisters(t *testing.T) {
	s, srv, mgr, reps, app := setup(t, 2)
	srv.Proc().Deliver(stack.OpListen{App: app.proc, ReqID: 77, Port: 80})
	s.RunFor(sim.Millisecond)
	if len(mgr.registered) != 1 {
		t.Fatal("not registered")
	}
	srv.Proc().Deliver(stack.OpCloseListener{ReqID: 77})
	s.RunFor(sim.Millisecond)
	if len(mgr.registered) != 0 {
		t.Fatal("close did not unregister the listen")
	}
	for i, r := range reps {
		if len(r.got) != 2 {
			t.Fatalf("replica %d got %d ops (want listen+close)", i, len(r.got))
		}
		if _, ok := r.got[1].(stack.OpCloseListener); !ok {
			t.Fatalf("replica %d second op: %T", i, r.got[1])
		}
	}
}

func TestUDPBindForwarded(t *testing.T) {
	s, srv, _, reps, app := setup(t, 1)
	srv.Proc().Deliver(stack.OpUDPBind{App: app.proc, ReqID: 9, Port: 53})
	s.RunFor(sim.Millisecond)
	if len(reps[0].got) != 1 {
		t.Fatalf("udp bind not forwarded: %v", reps[0].got)
	}
	if srv.Stats().UDPBinds != 1 {
		t.Fatalf("stats: %+v", srv.Stats())
	}
}
