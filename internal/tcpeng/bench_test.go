package tcpeng

import (
	"bytes"
	"testing"

	"neat/internal/bufpool"
	"neat/internal/proto"
	"neat/internal/sim"
)

// pipeEnv is the Env of one end of a lossless in-process pipe with no
// simulator behind it: segments are serialized into pooled frames and
// queued, pipe.pump decodes them into the peer engine, delayed ACKs fire at
// the end of every pump. It uses the buffers the way the stack does — the
// payload only during SendSegment, the received chunk back to the pool — so
// a steady-state exchange allocates nothing.
type pipeEnv struct {
	now    sim.Time
	eng    *Engine
	out    [][]byte // serialized frames not yet delivered to the peer
	delack []*Conn
	conn   *Conn // the one connection (server: set by Accepted)
	got    int   // payload bytes received
	// want, when set, is the body the peer sends over and over: every chunk
	// must be the piece of it that the stream position says, or bad is set.
	want []byte
	bad  bool
}

func (e *pipeEnv) Now() sim.Time { return e.now }

func (e *pipeEnv) SendSegment(c *Conn, seg OutSegment) {
	eth := proto.EthernetHeader{Type: proto.EtherTypeIPv4}
	ip := proto.IPv4Header{TTL: 64, Src: seg.Src, Dst: seg.Dst}
	proto.SegmentTSO(seg.Hdr, seg.Payload, seg.MSS, func(tcp proto.TCPHeader, p []byte) {
		e.out = append(e.out, proto.AppendTCP(bufpool.Get(proto.WireSizeTCP(&tcp, len(p)))[:0], eth, ip, tcp, p))
	})
}

func (e *pipeEnv) ArmTimer(c *Conn, k TimerKind, d sim.Time) {
	if k == TimerDelAck {
		e.delack = append(e.delack, c)
	}
}

func (e *pipeEnv) StopTimer(*Conn, TimerKind) {}
func (e *pipeEnv) Accepted(c *Conn)           { e.conn = c.Listener.Accept() }
func (e *pipeEnv) Connected(c *Conn)          { e.conn = c }

func (e *pipeEnv) DataReadable(c *Conn) {
	data := c.Recv(0)
	if e.want != nil {
		at := e.got % len(e.want)
		e.bad = e.bad || at+len(data) > len(e.want) || !bytes.Equal(data, e.want[at:at+len(data)])
	}
	e.got += len(data)
	bufpool.Put(data)
}

func (e *pipeEnv) SendSpace(*Conn)        {}
func (e *pipeEnv) ConnClosed(*Conn, bool) {}
func (e *pipeEnv) ConnRemoved(*Conn)      {}
func (e *pipeEnv) RandUint32() uint32     { return 7 }

type pipe struct {
	cli, srv *pipeEnv
	// swapPairs delivers every two consecutive data segments in reverse
	// order.
	swapPairs bool
}

// newPipe connects a client engine with cfg to a default server engine.
func newPipe(tb testing.TB, cfg Config) *pipe {
	p := &pipe{cli: &pipeEnv{}, srv: &pipeEnv{}}
	p.cli.eng = NewEngine(p.cli, proto.IPv4(10, 0, 0, 1), cfg)
	p.srv.eng = NewEngine(p.srv, proto.IPv4(10, 0, 0, 2), DefaultConfig())
	if _, err := p.srv.eng.Listen(proto.Addr{}, 80, 1); err != nil {
		tb.Fatal(err)
	}
	if _, err := p.cli.eng.Connect(p.srv.eng.Addr(), 80); err != nil {
		tb.Fatal(err)
	}
	p.pump()
	if p.cli.conn == nil || p.srv.conn == nil {
		tb.Fatal("pipe: handshake did not complete")
	}
	return p
}

// pump moves frames both ways until neither side has anything to say.
func (p *pipe) pump() {
	for len(p.cli.out)+len(p.srv.out) > 0 {
		p.deliver(p.cli, p.srv)
		p.deliver(p.srv, p.cli)
	}
}

func (p *pipe) deliver(from, to *pipeEnv) {
	from.now += 25 * sim.Microsecond
	to.now = from.now
	if p.swapPairs {
		for i := 0; i+1 < len(from.out); i += 2 {
			from.out[i], from.out[i+1] = from.out[i+1], from.out[i]
		}
	}
	// Input may make `from` transmit again only through a later deliver, so
	// the slice is stable while it is walked.
	for i, raw := range from.out {
		from.out[i] = nil
		f, err := proto.DecodeFrame(raw)
		if err != nil {
			panic("pipe: produced an undecodable frame: " + err.Error())
		}
		to.eng.Input(f)
		f.Release()
	}
	from.out = from.out[:0]
	for i, c := range to.delack {
		to.delack[i] = nil
		to.eng.OnTimer(c, TimerDelAck)
	}
	to.delack = to.delack[:0]
}

// newBulkPipe returns a warm TSO pipe and the exchange BenchmarkBulkSendRecv
// times: a 64 KiB Send on the idle keep-alive connection, pumped until it is
// received and acknowledged.
func newBulkPipe(tb testing.TB) (p *pipe, body []byte, exchange func()) {
	cfg := DefaultConfig()
	cfg.TSO = true
	p = newPipe(tb, cfg)
	body = make([]byte, 64<<10)
	exchange = func() {
		if n := p.cli.conn.Send(body); n != len(body) {
			tb.Fatalf("idle connection accepted %d of %d bytes", n, len(body))
		}
		p.pump()
	}
	for i := 0; i < 4; i++ { // grow the buffers and the pools
		exchange()
	}
	p.srv.got = 0
	return p, body, exchange
}

// BenchmarkBulkSendRecv is the per-byte path of one bulk reply inside the
// engine pair: the send buffer filled and released by ACKs, TSO
// super-segments cut at MSS, every segment marshalled, decoded, copied into
// a receive chunk and acknowledged.
func BenchmarkBulkSendRecv(b *testing.B) {
	p, body, exchange := newBulkPipe(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exchange()
	}
	b.StopTimer()
	if p.srv.got != b.N*len(body) {
		b.Fatalf("server received %d of %d bytes", p.srv.got, b.N*len(body))
	}
}

// TestBulkSendRecvZeroAlloc is the benchmark's 0 allocs/op as a gate: the
// send buffer reuses its array, receive chunks and frames cycle through the
// pools.
func TestBulkSendRecvZeroAlloc(t *testing.T) {
	if bufpool.RaceDetector {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	_, _, exchange := newBulkPipe(t)
	if allocs := testing.AllocsPerRun(50, exchange); allocs != 0 {
		t.Fatalf("a warm 64 KiB send-receive exchange allocates %.1f times", allocs)
	}
}
