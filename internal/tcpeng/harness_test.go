package tcpeng

import (
	"math/rand"
	"sort"

	"neat/internal/bufpool"
	"neat/internal/proto"
	"neat/internal/sim"
)

// The test harness wires two engines back-to-back through a fake
// environment with a manual clock: segments are serialized with the real
// proto marshalling, carried with a fixed one-way latency, and can be
// dropped, duplicated or reordered by per-test hooks.

const harnessLatency = 50 * sim.Microsecond

type hEvent struct {
	at  sim.Time
	seq int
	fn  func()
}

type harness struct {
	now   sim.Time
	seq   int
	queue []hEvent
	rng   *rand.Rand

	a, b *fakeEnv
	// DupAll duplicates every delivered segment (arriving twice).
	DupAll bool
	// Drop is consulted per transmitted segment (after serialization).
	Drop func(from *fakeEnv, f *proto.Frame) bool
	// ExtraDelay adds jitter per segment (reordering when > latency).
	ExtraDelay func(from *fakeEnv, f *proto.Frame) sim.Time
}

func newHarness(seed int64) *harness {
	h := &harness{rng: rand.New(rand.NewSource(seed))}
	h.a = newFakeEnv(h, "A", proto.IPv4(10, 0, 0, 1))
	h.b = newFakeEnv(h, "B", proto.IPv4(10, 0, 0, 2))
	return h
}

func (h *harness) at(t sim.Time, fn func()) {
	h.seq++
	h.queue = append(h.queue, hEvent{at: t, seq: h.seq, fn: fn})
	sort.Slice(h.queue, func(i, j int) bool {
		if h.queue[i].at != h.queue[j].at {
			return h.queue[i].at < h.queue[j].at
		}
		return h.queue[i].seq < h.queue[j].seq
	})
}

// step runs one event; returns false when idle.
func (h *harness) step() bool {
	if len(h.queue) == 0 {
		return false
	}
	e := h.queue[0]
	h.queue = h.queue[1:]
	if e.at > h.now {
		h.now = e.at
	}
	e.fn()
	return true
}

// run executes events until idle or the deadline passes.
func (h *harness) run(until sim.Time) {
	for len(h.queue) > 0 && h.queue[0].at <= until {
		h.step()
	}
	if h.now < until && len(h.queue) == 0 {
		h.now = until
	}
}

// runWhile steps until cond is false or idle or maxTime reached.
func (h *harness) runUntil(cond func() bool, maxTime sim.Time) bool {
	for !cond() {
		if len(h.queue) == 0 || h.queue[0].at > maxTime {
			return cond()
		}
		h.step()
	}
	return true
}

type timerKey struct {
	conn *Conn
	kind TimerKind
}

type fakeEnv struct {
	h      *harness
	name   string
	addr   proto.Addr
	engine *Engine
	peer   *fakeEnv
	rng    *rand.Rand

	gen   map[timerKey]int
	armed map[timerKey]bool

	accepted  []*Conn
	connected []*Conn
	closed    map[*Conn]bool
	resets    map[*Conn]bool
	removed   int
	readable  map[*Conn]int
	sendSpace map[*Conn]int

	// autoRecv drains receive buffers into recvData as data arrives
	// (push-mode sockets). Tests exercising flow control unset it.
	autoRecv bool
	recvData map[*Conn][]byte

	segsSent int
}

func newFakeEnv(h *harness, name string, addr proto.Addr) *fakeEnv {
	e := &fakeEnv{
		h: h, name: name, addr: addr,
		rng:       rand.New(rand.NewSource(int64(len(name)) + 7)),
		gen:       map[timerKey]int{},
		armed:     map[timerKey]bool{},
		closed:    map[*Conn]bool{},
		resets:    map[*Conn]bool{},
		readable:  map[*Conn]int{},
		sendSpace: map[*Conn]int{},
		recvData:  map[*Conn][]byte{},
		autoRecv:  true,
	}
	return e
}

func (e *fakeEnv) Now() sim.Time { return e.h.now }

func (e *fakeEnv) SendSegment(c *Conn, seg OutSegment) {
	e.segsSent++
	// Serialize through the real codec; split TSO like the NIC would.
	payloads := [][]byte{seg.Payload}
	if seg.TSO && len(seg.Payload) > seg.MSS {
		payloads = nil
		p := seg.Payload
		for len(p) > 0 {
			n := seg.MSS
			if n > len(p) {
				n = len(p)
			}
			payloads = append(payloads, p[:n])
			p = p[n:]
		}
	}
	seqNo := seg.Hdr.Seq
	for i, pl := range payloads {
		hdr := seg.Hdr
		hdr.Seq = seqNo
		if i < len(payloads)-1 {
			hdr.Flags &^= proto.TCPFin | proto.TCPPsh
		}
		raw := proto.BuildTCP(
			proto.EthernetHeader{Type: proto.EtherTypeIPv4},
			proto.IPv4Header{TTL: 64, Src: seg.Src, Dst: seg.Dst},
			hdr, pl)
		f, err := proto.DecodeFrame(raw)
		if err != nil {
			panic("harness: produced undecodable frame: " + err.Error())
		}
		if e.h.Drop != nil && e.h.Drop(e, f) {
			seqNo += uint32(len(pl))
			continue
		}
		delay := harnessLatency
		if e.h.ExtraDelay != nil {
			delay += e.h.ExtraDelay(e, f)
		}
		peer := e.peer
		e.h.at(e.h.now+delay, func() { peer.engine.Input(f) })
		if e.h.DupAll {
			e.h.at(e.h.now+delay+harnessLatency/2, func() { peer.engine.Input(f) })
		}
		seqNo += uint32(len(pl))
	}
}

func (e *fakeEnv) ArmTimer(c *Conn, k TimerKind, d sim.Time) {
	key := timerKey{c, k}
	e.gen[key]++
	g := e.gen[key]
	e.armed[key] = true
	e.h.at(e.h.now+d, func() {
		if e.gen[key] == g && e.armed[key] {
			e.armed[key] = false
			e.engine.OnTimer(c, k)
		}
	})
}

func (e *fakeEnv) StopTimer(c *Conn, k TimerKind) { e.armed[timerKey{c, k}] = false }

func (e *fakeEnv) Accepted(c *Conn)  { e.accepted = append(e.accepted, c) }
func (e *fakeEnv) Connected(c *Conn) { e.connected = append(e.connected, c) }

func (e *fakeEnv) DataReadable(c *Conn) {
	e.readable[c]++
	if e.autoRecv {
		// Copy and return the chunk at once, as the socket library does after
		// OnData: a chunk the engine still used would be overwritten by the
		// next segment and show up as a corrupt stream.
		data := c.Recv(0)
		e.recvData[c] = append(e.recvData[c], data...)
		bufpool.Put(data)
	}
}

func (e *fakeEnv) SendSpace(c *Conn)            { e.sendSpace[c]++ }
func (e *fakeEnv) ConnClosed(c *Conn, rst bool) { e.closed[c] = true; e.resets[c] = rst }
func (e *fakeEnv) ConnRemoved(c *Conn)          { e.removed++ }
func (e *fakeEnv) RandUint32() uint32           { return e.rng.Uint32() }

// build creates the two engines with the given configs and links the envs.
func (h *harness) build(cfgA, cfgB Config) {
	h.a.engine = NewEngine(h.a, h.a.addr, cfgA)
	h.b.engine = NewEngine(h.b, h.b.addr, cfgB)
	h.a.peer = h.b
	h.b.peer = h.a
}

// connectPair establishes one connection from A to B:port and returns
// (client, server) conns, or nils on failure.
func (h *harness) connectPair(port uint16) (*Conn, *Conn) {
	nc, na := len(h.a.connected), len(h.b.accepted)
	cli, err := h.a.engine.Connect(h.b.addr, port)
	if err != nil {
		return nil, nil
	}
	ok := h.runUntil(func() bool {
		return len(h.a.connected) > nc && len(h.b.accepted) > na
	}, 10*sim.Second)
	if !ok {
		return cli, nil
	}
	return cli, h.b.accepted[len(h.b.accepted)-1]
}
