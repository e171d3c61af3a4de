package app

import (
	"neat/internal/ipc"
	"neat/internal/metrics"
	"neat/internal/proto"
	"neat/internal/sim"
	"neat/internal/socketlib"
)

// This file is a DNS-shaped UDP request/response workload: a resolver
// server answering fixed-size queries and a client issuing paced lookups
// and matching answers by transaction ID. It exercises the UDP path
// (udpeng, the OpUDPBind/OpUDPSendTo/EvUDPData protocol, ephemeral UDP
// ports) beyond the echo tests: real request/response correlation,
// timeouts, and server-side application cost per query.
//
// The wire format is deliberately minimal — [2-byte ID][name bytes] out,
// [2-byte ID][4-byte answer] back — the point is the traffic shape, not
// RFC 1035.

// The modeled per-query costs: the resolver's lookup (a cache hit in a real
// resolver) and the client's per-lookup work.
const (
	dnsServerCyclesPerQuery = 8000
	dnsClientCyclesPerQuery = 2000
)

// dnsNames is the rotation of queried names: a small synthetic zone.
var dnsNames = []string{"www.sut.test", "api.sut.test", "cdn.sut.test", "db.sut.test"}

// DNSServerConfig configures the resolver process.
type DNSServerConfig struct {
	Port uint16 // default 53
}

// DNSServerStats counts resolver activity.
type DNSServerStats struct {
	Queries  uint64
	Answers  uint64
	BadQuery uint64
}

// DNSServer is one resolver process.
type DNSServer struct {
	proc  *sim.Proc
	lib   *socketlib.Lib
	cfg   DNSServerConfig
	sock  *socketlib.UDPSocket
	ready bool
	stats DNSServerStats
}

type dnsSrvStart struct{}

// NewDNSServer creates a resolver on thread th. Call Start to bind.
func NewDNSServer(th *sim.HWThread, name string, syscallProc *sim.Proc, ipcCosts ipc.Costs, cfg DNSServerConfig) *DNSServer {
	if cfg.Port == 0 {
		cfg.Port = 53
	}
	s := &DNSServer{cfg: cfg}
	s.proc = sim.NewProc(th, name, s, sim.ProcConfig{
		Component: "app", WakeCycles: 1400, HaltCycles: 900, DispatchCycles: 60,
	})
	s.lib = socketlib.New(s.proc, syscallProc, ipcCosts)
	return s
}

// Stats returns a snapshot of the counters.
func (s *DNSServer) Stats() DNSServerStats { return s.stats }

// Start binds the resolver port.
func (s *DNSServer) Start() { s.proc.Deliver(dnsSrvStart{}) }

// HandleMessage implements sim.Handler.
func (s *DNSServer) HandleMessage(ctx *sim.Context, msg sim.Message) {
	if s.lib.HandleEvent(ctx, msg) {
		return
	}
	if _, ok := msg.(dnsSrvStart); ok {
		s.sock = s.lib.BindUDP(ctx, s.cfg.Port)
		s.sock.OnReady = func(ctx *sim.Context, err error) { s.ready = err == nil }
		s.sock.OnData = s.onQuery
	}
}

// onQuery answers one query: the 4-byte answer is a deterministic digest
// of the queried name (a stand-in for the cache lookup).
func (s *DNSServer) onQuery(ctx *sim.Context, src proto.Addr, srcPort uint16, data []byte) {
	s.stats.Queries++
	if len(data) < 3 {
		s.stats.BadQuery++
		return
	}
	ctx.Charge(dnsServerCyclesPerQuery)
	h := uint32(2166136261)
	for _, b := range data[2:] {
		h = (h ^ uint32(b)) * 16777619
	}
	resp := []byte{data[0], data[1], byte(h >> 24), byte(h >> 16), byte(h >> 8), byte(h)}
	s.stats.Answers++
	s.sock.SendTo(ctx, src, srcPort, resp)
}

// DNSClientConfig configures one lookup-generator process.
type DNSClientConfig struct {
	Target proto.Addr
	Port   uint16 // default 53
	// Interval paces queries (default 100 µs).
	Interval sim.Time
	// Timeout expires an unanswered query (default 100 ms).
	Timeout sim.Time
}

// DNSClientStats counts lookup activity.
type DNSClientStats struct {
	QueriesSent uint64
	ResponsesOK uint64
	Mismatched  uint64 // answer arrived with an unknown/expired ID
	Timeouts    uint64
}

// DNSClient is one lookup-generator process.
type DNSClient struct {
	proc    *sim.Proc
	lib     *socketlib.Lib
	cfg     DNSClientConfig
	sock    *socketlib.UDPSocket
	ready   bool
	running bool
	stats   DNSClientStats
	latency metrics.Histogram

	nextID uint16
	// outstanding is a FIFO of in-flight queries (IDs are issued in
	// order, so expiry scans from the front — no map iteration, which
	// would be nondeterministic).
	outstanding []dnsPending
}

type dnsPending struct {
	id   uint16
	at   sim.Time
	done bool
}

type dnsCliStart struct{}
type dnsCliStop struct{}
type dnsCliTick struct{}

// NewDNSClient creates a lookup generator on thread th. Call Start to
// bind and begin querying.
func NewDNSClient(th *sim.HWThread, name string, syscallProc *sim.Proc, ipcCosts ipc.Costs, cfg DNSClientConfig) *DNSClient {
	if cfg.Port == 0 {
		cfg.Port = 53
	}
	if cfg.Interval == 0 {
		cfg.Interval = 100 * sim.Microsecond
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 100 * sim.Millisecond
	}
	c := &DNSClient{cfg: cfg}
	c.proc = sim.NewProc(th, name, c, sim.ProcConfig{
		Component: "app", WakeCycles: 1400, HaltCycles: 900, DispatchCycles: 60,
	})
	c.lib = socketlib.New(c.proc, syscallProc, ipcCosts)
	return c
}

// Stats returns a snapshot of the counters.
func (c *DNSClient) Stats() DNSClientStats { return c.stats }

// Start binds an ephemeral port and begins querying.
func (c *DNSClient) Start() { c.proc.Deliver(dnsCliStart{}) }

// Stop halts query issue (outstanding lookups may still resolve).
func (c *DNSClient) Stop() { c.proc.Deliver(dnsCliStop{}) }

// HandleMessage implements sim.Handler.
func (c *DNSClient) HandleMessage(ctx *sim.Context, msg sim.Message) {
	if c.lib.HandleEvent(ctx, msg) {
		return
	}
	switch msg.(type) {
	case dnsCliStart:
		if c.running {
			return
		}
		c.running = true
		c.sock = c.lib.BindUDP(ctx, 0)
		c.sock.OnReady = func(ctx *sim.Context, err error) {
			c.ready = err == nil
			if c.ready {
				c.tick(ctx)
			}
		}
		c.sock.OnData = c.onAnswer
	case dnsCliStop:
		c.running = false
	case dnsCliTick:
		if c.running {
			c.tick(ctx)
		}
	}
}

// tick issues one query, expires stale ones, and re-arms the pacer.
func (c *DNSClient) tick(ctx *sim.Context) {
	now := ctx.Sim.Now()
	for len(c.outstanding) > 0 {
		p := &c.outstanding[0]
		if !p.done && now-p.at < c.cfg.Timeout {
			break
		}
		if !p.done {
			c.stats.Timeouts++
		}
		c.outstanding = c.outstanding[1:]
	}
	ctx.Charge(dnsClientCyclesPerQuery)
	name := dnsNames[int(c.nextID)%len(dnsNames)]
	q := make([]byte, 2+len(name))
	q[0], q[1] = byte(c.nextID>>8), byte(c.nextID)
	copy(q[2:], name)
	c.outstanding = append(c.outstanding, dnsPending{id: c.nextID, at: now})
	c.nextID++
	c.stats.QueriesSent++
	c.sock.SendTo(ctx, c.cfg.Target, c.cfg.Port, q)
	ctx.TimerAfter(c.cfg.Interval, dnsCliTick{})
}

// onAnswer matches a response to its in-flight query by transaction ID.
func (c *DNSClient) onAnswer(ctx *sim.Context, src proto.Addr, srcPort uint16, data []byte) {
	if len(data) < 6 {
		c.stats.Mismatched++
		return
	}
	id := uint16(data[0])<<8 | uint16(data[1])
	for i := range c.outstanding {
		p := &c.outstanding[i]
		if p.id == id && !p.done {
			p.done = true
			c.stats.ResponsesOK++
			c.latency.Observe(ctx.Sim.Now() - p.at)
			return
		}
	}
	c.stats.Mismatched++
}
