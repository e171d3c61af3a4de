// Package sysserver implements the SYSCALL server of §3.1: the dedicated
// process through which applications issue blocking/control-plane socket
// calls. Data transfer bypasses it entirely (the mostly system-call-less
// socket design of §3.2), so under load the SYSCALL core becomes
// increasingly idle — which is why §6.4 colocates it with the NIC driver
// on one hyperthreaded core.
//
// Responsibilities:
//
//   - listen(): fan the subsocket creation out to every replica (§3.3) and
//     acknowledge the application once all replicas answered;
//   - connect(): forward the new connection to the replica the manager's
//     flow placement policy picks — uniformly random under the default
//     hash policy (load balancing and the address-space re-randomization
//     of §3.8), load-aware under the least-loaded policy;
//   - UDP bind: forward to a selected replica.
package sysserver

import (
	"neat/internal/ipc"
	"neat/internal/sim"
	"neat/internal/stack"
)

// Manager is the control-plane view the SYSCALL server needs; the NEaT
// core system implements it.
type Manager interface {
	// ConnectTarget returns the socket process of the replica that should
	// own a new outbound connection.
	ConnectTarget() *sim.Proc
	// ListenTargets returns the socket processes of all replicas that must
	// hold a subsocket of each listening socket.
	ListenTargets() []*sim.Proc
	// UDPTarget returns the entry process that should own a UDP binding.
	UDPTarget() *sim.Proc
	// RegisterListen records a listen for replay to future replicas
	// (scale-up and recovery); UnregisterListen removes it when the
	// application closes the listening socket.
	RegisterListen(op stack.OpListen)
	UnregisterListen(reqID uint64)
}

// Stats counts SYSCALL server activity.
type Stats struct {
	Listens  uint64
	Connects uint64
	UDPBinds uint64
}

// Server is the SYSCALL server process.
type Server struct {
	proc    *sim.Proc
	mgr     Manager
	ipcCost ipc.Costs
	conns   map[*sim.Proc]*ipc.Conn

	pending map[uint64]*pendingListen
	stats   Stats
}

type pendingListen struct {
	app  *sim.Proc
	want int
	got  int
	err  error
}

// opCycles is the per-call cost of the SYSCALL server.
const opCycles = 1500

// New creates the SYSCALL server on thread th.
func New(th *sim.HWThread, mgr Manager, ipcCost ipc.Costs) *Server {
	s := &Server{mgr: mgr, ipcCost: ipcCost,
		conns: map[*sim.Proc]*ipc.Conn{}, pending: map[uint64]*pendingListen{}}
	s.proc = sim.NewProc(th, "syscall", s, sim.ProcConfig{
		Component: "syscall", WakeCycles: 1400, HaltCycles: 900, DispatchCycles: 80,
	})
	return s
}

// Proc returns the server process (the target applications call into).
func (s *Server) Proc() *sim.Proc { return s.proc }

// Restart revives a dead SYSCALL server process in place. The endpoint is
// stable (applications keep their reference; the reincarnation-server
// contract for system services), but all per-incarnation state is gone:
// shared-memory channels are re-established lazily on the next send, and
// in-flight operations that were awaiting replica acks are lost — their
// callers observe a timeout and retry, as against a rebooted kernel. The
// listen table itself lives in the management plane and survives.
func (s *Server) Restart() {
	s.proc.Respawn()
	s.conns = map[*sim.Proc]*ipc.Conn{}
	s.pending = map[uint64]*pendingListen{}
}

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats { return s.stats }

func (s *Server) send(ctx *sim.Context, to *sim.Proc, msg sim.Message) {
	c, ok := s.conns[to]
	if !ok {
		c = ipc.New(to, s.ipcCost)
		s.conns[to] = c
	}
	c.Send(ctx, msg)
}

// HandleMessage implements sim.Handler. A request forwarded unchanged goes
// on as the msg it arrived in: passing the type-switched copy would box it
// again.
func (s *Server) HandleMessage(ctx *sim.Context, msg sim.Message) {
	switch m := msg.(type) {
	case stack.OpListen:
		ctx.Charge(opCycles)
		s.stats.Listens++
		s.mgr.RegisterListen(m)
		targets := s.mgr.ListenTargets()
		if len(targets) == 0 {
			s.send(ctx, m.App, stack.EvListening{ReqID: m.ReqID, Err: stack.ErrNoReplicas})
			return
		}
		s.pending[m.ReqID] = &pendingListen{app: m.App, want: len(targets)}
		fanned := m
		fanned.ReplyTo = s.proc
		for _, t := range targets {
			s.send(ctx, t, fanned)
		}
	case stack.EvListening:
		ctx.Charge(opCycles / 4)
		p, ok := s.pending[m.ReqID]
		if !ok {
			return // replayed listen after recovery: already acknowledged
		}
		p.got++
		if m.Err != nil && p.err == nil {
			p.err = m.Err
		}
		if p.got >= p.want {
			delete(s.pending, m.ReqID)
			s.send(ctx, p.app, stack.EvListening{ReqID: m.ReqID, Err: p.err})
		}
	case stack.OpCloseListener:
		ctx.Charge(opCycles)
		s.mgr.UnregisterListen(m.ReqID)
		for _, t := range s.mgr.ListenTargets() {
			s.send(ctx, t, msg)
		}
	case stack.OpConnect:
		ctx.Charge(opCycles)
		s.stats.Connects++
		t := s.mgr.ConnectTarget()
		if t == nil {
			s.send(ctx, m.App, stack.EvConnected{ReqID: m.ReqID, Err: stack.ErrNoReplicas})
			return
		}
		s.send(ctx, t, msg)
	case stack.OpUDPBind:
		ctx.Charge(opCycles)
		s.stats.UDPBinds++
		t := s.mgr.UDPTarget()
		if t == nil {
			s.send(ctx, m.App, stack.EvUDPBound{ReqID: m.ReqID, Err: stack.ErrNoReplicas})
			return
		}
		s.send(ctx, t, msg)
	}
}
