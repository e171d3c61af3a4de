package main

import (
	"errors"
	"fmt"
	"time"

	"neat/internal/bufpool"
	"neat/internal/proto"
	"neat/internal/sim"
	"neat/internal/tcpeng"
)

// The tcpeng drivers run two engines back to back with no simulator: the
// stub Env below captures what an engine transmits, the harness
// serializes and decodes it outside the timed region, and only the calls
// into the engine — Connect, Input, Send, Close, OnTimer — are timed. One
// population of p.conns connections goes through its whole life:
//
//	handshake_ns      Connect + SYN in + SYN|ACK in + ACK in, per connection
//	segment_out_ns    Conn.Send of one payload (windows, segment build)
//	segment_in_ns     Input of one data segment (demux, reassembly, Recv)
//	ack_in_ns         Input of one pure ACK (send-buffer release, Reno)
//	close_recycle_ns  Close both ways + FIN/ACK inputs + TIME_WAIT expiry,
//	                  until both PCBs are back in their pools
//	pcb_bytes_per_conn  live heap per established connection, both ends

// tcpStub is the tcpeng.Env of one side.
type tcpStub struct {
	now    sim.Time
	eng    *tcpeng.Engine
	server bool
	isn    uint32

	out      []stubSeg
	payloads []byte // backing store of the captured payloads
	delack   []*tcpeng.Conn
	timewait []*tcpeng.Conn
	conns    []*tcpeng.Conn // client: established connections
	accepted int
	removed  int
	recvd    int
}

type stubSeg struct {
	src, dst proto.Addr
	hdr      proto.TCPHeader
	off, n   int
}

func (s *tcpStub) Now() sim.Time { return s.now }

func (s *tcpStub) SendSegment(c *tcpeng.Conn, seg tcpeng.OutSegment) {
	off := len(s.payloads)
	s.payloads = append(s.payloads, seg.Payload...)
	s.out = append(s.out, stubSeg{src: seg.Src, dst: seg.Dst, hdr: seg.Hdr, off: off, n: len(seg.Payload)})
}

func (s *tcpStub) ArmTimer(c *tcpeng.Conn, k tcpeng.TimerKind, d sim.Time) {
	switch k {
	case tcpeng.TimerDelAck:
		s.delack = append(s.delack, c)
	case tcpeng.TimerTimeWait:
		s.timewait = append(s.timewait, c)
	}
}

func (s *tcpStub) StopTimer(*tcpeng.Conn, tcpeng.TimerKind) {}

func (s *tcpStub) Accepted(c *tcpeng.Conn) {
	s.accepted++
	c.Listener.Accept()
}

func (s *tcpStub) Connected(c *tcpeng.Conn) { s.conns = append(s.conns, c) }

func (s *tcpStub) DataReadable(c *tcpeng.Conn) {
	s.recvd += len(c.Recv(0))
	if s.server && c.EOF() {
		c.Close()
	}
}

func (s *tcpStub) SendSpace(*tcpeng.Conn)        {}
func (s *tcpStub) ConnClosed(*tcpeng.Conn, bool) {}
func (s *tcpStub) ConnRemoved(*tcpeng.Conn)      { s.removed++ }

func (s *tcpStub) RandUint32() uint32 {
	s.isn = s.isn*1664525 + 1013904223
	return s.isn
}

// tcpPair is the two engines and the scratch the pump reuses.
type tcpPair struct {
	cli, srv *tcpStub
	frames   []*proto.Frame
}

// pump moves everything from has captured into to's engine and returns
// the segment count and the host time spent inside Engine.Input.
func (tp *tcpPair) pump(from, to *tcpStub) (int, time.Duration, error) {
	tp.frames = tp.frames[:0]
	for _, sg := range from.out {
		payload := from.payloads[sg.off : sg.off+sg.n]
		raw := proto.AppendTCP(bufpool.Get(proto.WireSizeTCP(&sg.hdr, sg.n))[:0],
			proto.EthernetHeader{Type: proto.EtherTypeIPv4},
			proto.IPv4Header{TTL: 64, Src: sg.src, Dst: sg.dst}, sg.hdr, payload)
		f, err := proto.DecodeFrame(raw)
		if err != nil {
			return 0, 0, fmt.Errorf("captured segment does not decode: %w", err)
		}
		tp.frames = append(tp.frames, f)
	}
	from.out, from.payloads = from.out[:0], from.payloads[:0]
	from.now += 25 * sim.Microsecond
	to.now = from.now
	t0 := time.Now()
	for _, f := range tp.frames {
		to.eng.Input(f)
	}
	d := time.Since(t0)
	for _, f := range tp.frames {
		f.Release()
	}
	return len(tp.frames), d, nil
}

// fireDelAcks runs the delayed-ACK timers an exchange armed, so the ACKs
// exist to be pumped back.
func (s *tcpStub) fireDelAcks() {
	for _, c := range s.delack {
		s.eng.OnTimer(c, tcpeng.TimerDelAck)
	}
	s.delack = s.delack[:0]
}

func tcpDrivers(p layerParams, out map[string]float64) error {
	const port = 80
	cliIP, srvIP := proto.IPv4(10, 0, 1, 1), proto.IPv4(10, 0, 0, 1)
	tp := &tcpPair{cli: &tcpStub{isn: 1}, srv: &tcpStub{isn: 2, server: true}}
	ccfg := tcpeng.DefaultConfig()
	ccfg.EphemeralLo, ccfg.EphemeralHi = 1024, 65535
	tp.cli.eng = tcpeng.NewEngine(tp.cli, cliIP, ccfg)
	tp.srv.eng = tcpeng.NewEngine(tp.srv, srvIP, tcpeng.DefaultConfig())
	if _, err := tp.srv.eng.Listen(proto.Addr{}, port, p.conns+16); err != nil {
		return err
	}
	// Small tables go through several lifecycles on the same engines, so
	// every figure rests on at least ~20 000 calls; after the first cycle
	// the PCBs come from the pools, as in a workload in steady state.
	n := p.conns
	cycles := max(1, 1000*p.scaled(20)/n)
	rounds := max(2, 1000*p.scaled(200)/(n*cycles))
	body := make([]byte, p.payload)
	base := liveHeap()
	var hs, sendT, segInT, ackInT, cl time.Duration
	var segs, acks int
	for cycle := 0; cycle < cycles; cycle++ {
		// Handshakes.
		tp.cli.conns, tp.cli.timewait, tp.srv.accepted = tp.cli.conns[:0], tp.cli.timewait[:0], 0
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := tp.cli.eng.Connect(srvIP, port); err != nil {
				return err
			}
		}
		hs += time.Since(t0)
		for _, leg := range [][2]*tcpStub{{tp.cli, tp.srv}, {tp.srv, tp.cli}, {tp.cli, tp.srv}} {
			_, d, err := tp.pump(leg[0], leg[1])
			if err != nil {
				return err
			}
			hs += d
		}
		if len(tp.cli.conns) != n || tp.srv.accepted != n {
			return fmt.Errorf("%d of %d connections established", min(len(tp.cli.conns), tp.srv.accepted), n)
		}
		if cycle == 0 {
			if live := liveHeap(); live > base {
				out["tcpeng.pcb_bytes_per_conn"] = float64(live-base) / float64(n)
			}
		}

		// Data: every connection sends one payload per round; the server's
		// delayed ACKs are fired and pumped back.
		for r := 0; r < rounds; r++ {
			t0 = time.Now()
			for _, c := range tp.cli.conns {
				c.Send(body)
			}
			sendT += time.Since(t0)
			k, d, err := tp.pump(tp.cli, tp.srv)
			if err != nil {
				return err
			}
			segs, segInT = segs+k, segInT+d
			tp.srv.fireDelAcks()
			k, d, err = tp.pump(tp.srv, tp.cli)
			if err != nil {
				return err
			}
			acks, ackInT = acks+k, ackInT+d
		}

		// Close: client FINs, server answers and closes, client
		// acknowledges into TIME_WAIT, whose expiry recycles the last PCBs.
		t0 = time.Now()
		for _, c := range tp.cli.conns {
			c.Close()
		}
		cl += time.Since(t0)
		for _, leg := range [][2]*tcpStub{{tp.cli, tp.srv}, {tp.srv, tp.cli}, {tp.cli, tp.srv}, {tp.srv, tp.cli}} {
			leg[1].fireDelAcks()
			_, d, err := tp.pump(leg[0], leg[1])
			if err != nil {
				return err
			}
			cl += d
		}
		t0 = time.Now()
		for _, c := range tp.cli.timewait {
			tp.cli.eng.OnTimer(c, tcpeng.TimerTimeWait)
		}
		cl += time.Since(t0)
		if a, b := tp.cli.eng.NumConns(), tp.srv.eng.NumConns(); a != 0 || b != 0 {
			return fmt.Errorf("%d client and %d server PCBs survive the close", a, b)
		}
	}
	if want := cycles * rounds * n * p.payload; tp.srv.recvd != want {
		return fmt.Errorf("server received %d of %d payload bytes", tp.srv.recvd, want)
	}
	if segs == 0 || acks == 0 {
		return errors.New("no segments exchanged")
	}
	out["tcpeng.handshake_ns"] = perCall(hs, cycles*n)
	out["tcpeng.segment_out_ns"] = perCall(sendT, cycles*rounds*n)
	out["tcpeng.segment_in_ns"] = perCall(segInT, segs)
	out["tcpeng.ack_in_ns"] = perCall(ackInT, acks)
	out["tcpeng.close_recycle_ns"] = perCall(cl, cycles*n)
	return nil
}
