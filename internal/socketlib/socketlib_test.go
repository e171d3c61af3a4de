package socketlib

import (
	"errors"
	"testing"

	"neat/internal/ipc"
	"neat/internal/proto"
	"neat/internal/sim"
	"neat/internal/stack"
)

// fakeConn is the handle the fake stack gives its one connection (ConnID 77).
var fakeConn = stack.Handle{Host: 1, Slot: 0, Gen: 1}

// fakeStack scripts the stack side of the socket protocol: it records ops
// and replies according to a small rule set.
type fakeStack struct {
	proc    *sim.Proc
	ops     []sim.Message
	appConn *ipc.Conn
	refuse  bool // refuse connects
}

func (f *fakeStack) HandleMessage(ctx *sim.Context, msg sim.Message) {
	f.ops = append(f.ops, msg)
	switch m := msg.(type) {
	case stack.OpListen:
		f.appConn = ipc.New(m.App, ipc.DefaultCosts())
		f.appConn.Send(ctx, stack.EvListening{ReqID: m.ReqID})
	case stack.OpConnect:
		f.appConn = ipc.New(m.App, ipc.DefaultCosts())
		if f.refuse {
			f.appConn.Send(ctx, stack.EvConnected{ReqID: m.ReqID, Stack: f.proc, Err: errors.New("refused")})
			return
		}
		f.appConn.Send(ctx, stack.EvConnected{ReqID: m.ReqID, Conn: fakeConn, ConnID: 77, Stack: f.proc, SendBuf: 1000})
	case *stack.OpSend:
		// Echo the data back. The box is retained in f.ops for the tests'
		// op-sequence assertions, so it is deliberately not recycled.
		f.appConn.Send(ctx, stack.NewEvData(ctx.Sim, stack.EvData{Conn: m.Conn, Data: append([]byte(nil), m.Data...)}))
		if m.WantSpace {
			f.appConn.Send(ctx, stack.NewEvSendSpace(ctx.Sim, stack.EvSendSpace{Conn: m.Conn, Available: 1000}))
		}
	case stack.OpCloseListener:
		// recorded in ops; nothing to reply
	case stack.OpUDPBind:
		f.appConn = ipc.New(m.App, ipc.DefaultCosts())
		f.appConn.Send(ctx, stack.EvUDPBound{ReqID: m.ReqID, UDPID: 5, Port: 5353, Stack: f.proc})
	}
}

type testApp struct {
	proc *sim.Proc
	lib  *Lib
	on   func(ctx *sim.Context, msg sim.Message)
}

func (a *testApp) HandleMessage(ctx *sim.Context, msg sim.Message) {
	if a.lib.HandleEvent(ctx, msg) {
		return
	}
	if a.on != nil {
		a.on(ctx, msg)
	}
}

func setup(t *testing.T) (*sim.Simulator, *fakeStack, *testApp) {
	t.Helper()
	s := sim.New(1)
	m := sim.NewMachine(s, "m", 2, 1, 1_000_000_000)
	fs := &fakeStack{}
	fs.proc = sim.NewProc(m.Thread(0, 0), "fakestack", fs, sim.ProcConfig{})
	app := &testApp{}
	app.proc = sim.NewProc(m.Thread(1, 0), "app", app, sim.ProcConfig{})
	app.lib = New(app.proc, fs.proc, ipc.DefaultCosts())
	return s, fs, app
}

func TestConnectSendReceiveClose(t *testing.T) {
	s, _, app := setup(t)
	var sock *Socket
	var got []byte
	connected := false
	app.on = func(ctx *sim.Context, msg sim.Message) {
		if msg != "go" {
			return
		}
		sock = app.lib.Connect(ctx, proto.IPv4(10, 0, 0, 1), 80)
		sock.OnConnect = func(ctx *sim.Context, err error) {
			if err != nil {
				t.Errorf("connect err: %v", err)
				return
			}
			connected = true
			sock.Send(ctx, []byte("abc"))
		}
		sock.OnData = func(ctx *sim.Context, data []byte, eof bool) {
			got = append(got, data...)
		}
	}
	app.proc.Deliver("go")
	s.RunFor(sim.Millisecond)
	if !connected || sock.State() != SockOpen {
		t.Fatal("not connected")
	}
	if string(got) != "abc" {
		t.Fatalf("echo got %q", got)
	}
	// The tiny 1000-byte test buffer sits below SendLowWater, so the Send
	// requested a space notification and the stack refreshed the credit.
	if sock.Credit() != 1000 {
		t.Fatalf("credit=%d", sock.Credit())
	}
	if openSockets(app.lib) != 1 {
		t.Fatal("open socket count")
	}
}

func TestConnectRefused(t *testing.T) {
	s, fs, app := setup(t)
	_ = fs
	fs.refuse = true
	var gotErr error
	app.on = func(ctx *sim.Context, msg sim.Message) {
		sk := app.lib.Connect(ctx, proto.IPv4(10, 0, 0, 1), 81)
		sk.OnConnect = func(ctx *sim.Context, err error) { gotErr = err }
	}
	app.proc.Deliver("go")
	s.RunFor(sim.Millisecond)
	if gotErr == nil {
		t.Fatal("refused connect reported success")
	}
	if openSockets(app.lib) != 0 {
		t.Fatal("refused socket left open")
	}
}

func TestListenAcceptFlow(t *testing.T) {
	s, fs, app := setup(t)
	var accepted *Socket
	ready := false
	app.on = func(ctx *sim.Context, msg sim.Message) {
		ln := app.lib.Listen(ctx, 80, 16)
		ln.OnReady = func(ctx *sim.Context, err error) { ready = err == nil }
		ln.OnAccept = func(ctx *sim.Context, sk *Socket) { accepted = sk }
		// Simulate the stack announcing an accepted connection. The
		// ListenerReqID must match, so capture it via the fake stack after
		// the op arrives.
		_ = ln
	}
	app.proc.Deliver("go")
	s.RunFor(sim.Millisecond)
	if !ready {
		t.Fatal("listener not ready")
	}
	op := fs.ops[0].(stack.OpListen)
	app.proc.Deliver(stack.NewEvAccepted(s, stack.EvAccepted{ListenerReqID: op.ReqID, Conn: fakeConn,
		Stack: fs.proc, RemoteAddr: proto.IPv4(10, 0, 0, 2), RemotePort: 5555, SendBuf: 500}))
	s.RunFor(sim.Millisecond)
	if accepted == nil {
		t.Fatal("no accept callback")
	}
	if accepted.RemotePort != 5555 || accepted.Credit() != 500 || accepted.State() != SockOpen {
		t.Fatalf("accepted socket: %+v", accepted)
	}
}

func TestEOFAndClosedEvents(t *testing.T) {
	s, _, app := setup(t)
	var sock *Socket
	var sawEOF, sawClosed, sawReset bool
	app.on = func(ctx *sim.Context, msg sim.Message) {
		sock = app.lib.Connect(ctx, proto.IPv4(10, 0, 0, 1), 80)
		sock.OnData = func(ctx *sim.Context, data []byte, eof bool) { sawEOF = sawEOF || eof }
		sock.OnClosed = func(ctx *sim.Context, reset bool, err error) {
			sawClosed = true
			sawReset = reset
		}
	}
	app.proc.Deliver("go")
	s.RunFor(sim.Millisecond)
	app.proc.Deliver(stack.NewEvData(s, stack.EvData{Conn: fakeConn, EOF: true}))
	app.proc.Deliver(stack.NewEvClosed(s, stack.EvClosed{Conn: fakeConn, Reset: true,
		Err: stack.ErrReplicaFailure}))
	s.RunFor(sim.Millisecond)
	if !sawEOF || !sawClosed || !sawReset {
		t.Fatalf("eof=%v closed=%v reset=%v", sawEOF, sawClosed, sawReset)
	}
	if sock.State() != sockClosed {
		t.Fatal("socket not closed")
	}
	// A second EvClosed for the same conn is ignored (already removed).
	sawClosed = false
	app.proc.Deliver(stack.NewEvClosed(s, stack.EvClosed{Conn: fakeConn}))
	s.RunFor(sim.Millisecond)
	if sawClosed {
		t.Fatal("duplicate close delivered")
	}
}

func TestSendSpaceCreditProtocol(t *testing.T) {
	s, _, app := setup(t)
	var sock *Socket
	gotSpace := 0
	app.on = func(ctx *sim.Context, msg sim.Message) {
		sock = app.lib.Connect(ctx, proto.IPv4(10, 0, 0, 1), 80)
		sock.OnConnect = func(ctx *sim.Context, err error) {
			// Exhaust credit below the low-water mark in one send; the lib
			// must set WantSpace and the stack reply refreshes the credit.
			sock.Send(ctx, make([]byte, 900))
		}
		sock.OnSendSpace = func(ctx *sim.Context, avail int) { gotSpace = avail }
		sock.OnData = func(ctx *sim.Context, data []byte, eof bool) {}
	}
	app.proc.Deliver("go")
	s.RunFor(sim.Millisecond)
	if gotSpace != 1000 {
		t.Fatalf("send-space credit not refreshed: %d", gotSpace)
	}
	if sock.Credit() != 1000 {
		t.Fatalf("credit=%d", sock.Credit())
	}
}

func TestSendOnClosedSocketRefused(t *testing.T) {
	s, _, app := setup(t)
	var sock *Socket
	app.on = func(ctx *sim.Context, msg sim.Message) {
		sock = app.lib.Connect(ctx, proto.IPv4(10, 0, 0, 1), 80)
		sock.OnConnect = func(ctx *sim.Context, err error) {
			sock.Close(ctx)
			if sock.Send(ctx, []byte("x")) {
				t.Error("send after close accepted")
			}
			sock.Close(ctx) // double close is a no-op
		}
	}
	app.proc.Deliver("go")
	s.RunFor(sim.Millisecond)
	if sock.State() != sockClosed {
		t.Fatal("not closed")
	}
}

func TestUDPBindSendReceive(t *testing.T) {
	s, fs, app := setup(t)
	var u *UDPSocket
	var got string
	ready := false
	app.on = func(ctx *sim.Context, msg sim.Message) {
		u = app.lib.BindUDP(ctx, 5353)
		u.OnReady = func(ctx *sim.Context, err error) { ready = err == nil }
		u.OnData = func(ctx *sim.Context, src proto.Addr, sport uint16, data []byte) {
			got = string(data)
		}
	}
	app.proc.Deliver("go")
	s.RunFor(sim.Millisecond)
	if !ready || u.Port != 5353 {
		t.Fatalf("bind: ready=%v port=%d", ready, u.Port)
	}
	app.proc.Deliver(stack.EvUDPData{Stack: fs.proc, UDPID: 5, Src: proto.IPv4(1, 2, 3, 4), SrcPort: 9, Data: []byte("dgram")})
	s.RunFor(sim.Millisecond)
	if got != "dgram" {
		t.Fatalf("udp data %q", got)
	}
	// SendTo reaches the stack.
	before := len(fs.ops)
	appCtxSend(s, app, u)
	s.RunFor(sim.Millisecond)
	if len(fs.ops) <= before {
		t.Fatal("SendTo never reached the stack")
	}
	appCtxClose(s, app, u)
	s.RunFor(sim.Millisecond)
}

// appCtxSend drives u.SendTo from within the app's dispatch context.
func appCtxSend(s *sim.Simulator, app *testApp, u *UDPSocket) {
	prev := app.on
	app.on = func(ctx *sim.Context, msg sim.Message) {
		if msg == "sendto" {
			u.SendTo(ctx, proto.IPv4(10, 0, 0, 1), 5353, []byte("out"))
		}
	}
	app.proc.Deliver("sendto")
	s.RunFor(sim.Microsecond)
	app.on = prev
}

func appCtxClose(s *sim.Simulator, app *testApp, u *UDPSocket) {
	app.on = func(ctx *sim.Context, msg sim.Message) {
		if msg == "close" {
			u.Close(ctx)
			u.Close(ctx) // idempotent
		}
	}
	app.proc.Deliver("close")
}

func TestListenerClose(t *testing.T) {
	s, fs, app := setup(t)
	var ln *Listener
	app.on = func(ctx *sim.Context, msg sim.Message) {
		switch msg {
		case "go":
			ln = app.lib.Listen(ctx, 80, 8)
		case "close":
			ln.Close(ctx)
			ln.Close(ctx) // idempotent
		}
	}
	app.proc.Deliver("go")
	s.RunFor(sim.Millisecond)
	app.proc.Deliver("close")
	s.RunFor(sim.Millisecond)
	var closes int
	for _, op := range fs.ops {
		if _, ok := op.(stack.OpCloseListener); ok {
			closes++
		}
	}
	if closes != 1 {
		t.Fatalf("close ops = %d, want exactly 1", closes)
	}
	// Accept events for the closed listener are ignored.
	op := fs.ops[0].(stack.OpListen)
	app.proc.Deliver(stack.NewEvAccepted(s, stack.EvAccepted{ListenerReqID: op.ReqID, Conn: fakeConn,
		Stack: fs.proc}))
	s.RunFor(sim.Millisecond)
	if openSockets(app.lib) != 0 {
		t.Fatal("closed listener accepted a connection")
	}
}

func TestUnknownEventsIgnored(t *testing.T) {
	s, fs, app := setup(t)
	stray := stack.Handle{Host: 1, Slot: 5, Gen: 9}
	app.proc.Deliver(stack.NewEvData(s, stack.EvData{Conn: stray, Data: []byte("stray")}))
	app.proc.Deliver(stack.NewEvSendSpace(s, stack.EvSendSpace{Conn: stray}))
	app.proc.Deliver(stack.NewEvAccepted(s, stack.EvAccepted{ListenerReqID: 424242, Conn: stray,
		Stack: fs.proc}))
	s.RunFor(sim.Millisecond) // must not panic
	if openSockets(app.lib) != 0 {
		t.Fatal("stray events created sockets")
	}
}

// openSockets counts l's sockets in SockOpen state.
func openSockets(l *Lib) int {
	n := 0
	for _, host := range l.socks {
		for _, s := range host {
			if s != nil && s.state == SockOpen {
				n++
			}
		}
	}
	return n
}
