package ipeng

import (
	"bytes"
	"sort"
	"testing"

	"neat/internal/bufpool"
	"neat/internal/proto"
	"neat/internal/sim"
)

var (
	macA = proto.MAC{2, 0, 0, 0, 0, 0xA}
	macB = proto.MAC{2, 0, 0, 0, 0, 0xB}
	ipA  = proto.IPv4(10, 0, 0, 1)
	ipB  = proto.IPv4(10, 0, 0, 2)
	mask = proto.IPv4(255, 255, 255, 0)
)

// fakeIPEnv collects transmissions and deliveries with a manual clock.
type fakeIPEnv struct {
	now       sim.Time
	frames    [][]byte
	tso       int
	delivered []*proto.Frame
	timers    []ipTimer
}

type ipTimer struct {
	at sim.Time
	fn func()
}

func (e *fakeIPEnv) TransmitFrame(raw []byte) { e.frames = append(e.frames, raw) }
func (e *fakeIPEnv) TransmitTSO(eth proto.EthernetHeader, ip proto.IPv4Header, tcp proto.TCPHeader, payload []byte, mss int) {
	e.tso++
}
func (e *fakeIPEnv) DeliverTransport(f *proto.Frame) { e.delivered = append(e.delivered, f) }
func (e *fakeIPEnv) After(d sim.Time, fn func()) {
	e.timers = append(e.timers, ipTimer{at: e.now + d, fn: fn})
}

// advance runs due timers up to t.
func (e *fakeIPEnv) advance(t sim.Time) {
	e.now = t
	sort.SliceStable(e.timers, func(i, j int) bool { return e.timers[i].at < e.timers[j].at })
	for len(e.timers) > 0 && e.timers[0].at <= t {
		tm := e.timers[0]
		e.timers = e.timers[1:]
		tm.fn()
	}
}

func newIP(env Env, addr proto.Addr, mac proto.MAC, static bool) *Engine {
	cfg := Config{Addr: addr, Mask: mask, MAC: mac}
	if static {
		other, otherMAC := ipB, macB
		if addr == ipB {
			other, otherMAC = ipA, macA
		}
		cfg.StaticARP = map[proto.Addr]proto.MAC{other: otherMAC}
	}
	return NewEngine(env, cfg)
}

func udpPayload(t *testing.T, dst proto.Addr, data []byte) []byte {
	t.Helper()
	h := proto.UDPHeader{SrcPort: 1000, DstPort: 2000}
	return h.Marshal(nil, ipA, dst, data)
}

func TestOutputWithStaticARP(t *testing.T) {
	env := &fakeIPEnv{}
	e := newIP(env, ipA, macA, true)
	e.Output(ipB, proto.ProtoUDP, udpPayload(t, ipB, []byte("hi")))
	if len(env.frames) != 1 {
		t.Fatalf("frames=%d", len(env.frames))
	}
	f, err := proto.DecodeFrame(env.frames[0])
	if err != nil {
		t.Fatal(err)
	}
	if f.Eth.Dst != macB || f.IP.Dst != ipB || f.UDP == nil || string(f.Payload) != "hi" {
		t.Fatalf("frame: %+v", f)
	}
}

func TestARPResolutionQueuesAndFlushes(t *testing.T) {
	env := &fakeIPEnv{}
	e := newIP(env, ipA, macA, false) // no static ARP
	e.Output(ipB, proto.ProtoUDP, udpPayload(t, ipB, []byte("q1")))
	e.Output(ipB, proto.ProtoUDP, udpPayload(t, ipB, []byte("q2")))
	// Only one ARP request so far; data frames queued.
	if len(env.frames) != 1 {
		t.Fatalf("expected 1 ARP request, got %d frames", len(env.frames))
	}
	arpf, _ := proto.DecodeFrame(env.frames[0])
	if arpf.ARP == nil || arpf.ARP.Op != proto.ARPRequest || arpf.ARP.TargetIP != ipB {
		t.Fatalf("not an ARP request: %+v", arpf)
	}
	// Deliver the ARP reply.
	reply := proto.BuildARP(
		proto.EthernetHeader{Dst: macA, Src: macB, Type: proto.EtherTypeARP},
		proto.ARPPacket{Op: proto.ARPReply, SenderMAC: macB, SenderIP: ipB, TargetMAC: macA, TargetIP: ipA})
	rf, _ := proto.DecodeFrame(reply)
	e.Input(rf)
	if len(env.frames) != 3 {
		t.Fatalf("queued frames not flushed: %d", len(env.frames))
	}
	for _, raw := range env.frames[1:] {
		f, err := proto.DecodeFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		if f.Eth.Dst != macB {
			t.Fatalf("flushed frame has wrong MAC: %v", f.Eth.Dst)
		}
	}
	if _, ok := e.arp[ipB]; !ok {
		t.Fatal("ARP entry not cached")
	}
}

func TestARPRetryAndFailure(t *testing.T) {
	env := &fakeIPEnv{}
	e := newIP(env, ipA, macA, false)
	e.Output(ipB, proto.ProtoUDP, udpPayload(t, ipB, []byte("x")))
	env.advance(250 * sim.Millisecond)
	env.advance(500 * sim.Millisecond)
	env.advance(750 * sim.Millisecond)
	st := e.Stats()
	if st.ARPRequestsSent < 2 {
		t.Fatalf("no ARP retry: %+v", st)
	}
	if st.ARPFailed != 1 {
		t.Fatalf("ARP failure not recorded: %+v", st)
	}
}

func TestARPRequestAnswered(t *testing.T) {
	env := &fakeIPEnv{}
	e := newIP(env, ipA, macA, false)
	req := proto.BuildARP(
		proto.EthernetHeader{Dst: proto.BroadcastMAC, Src: macB, Type: proto.EtherTypeARP},
		proto.ARPPacket{Op: proto.ARPRequest, SenderMAC: macB, SenderIP: ipB, TargetIP: ipA})
	rf, _ := proto.DecodeFrame(req)
	e.Input(rf)
	if len(env.frames) != 1 {
		t.Fatalf("no ARP reply sent")
	}
	f, _ := proto.DecodeFrame(env.frames[0])
	if f.ARP == nil || f.ARP.Op != proto.ARPReply || f.ARP.SenderIP != ipA || f.Eth.Dst != macB {
		t.Fatalf("bad reply: %+v", f)
	}
	// And it learned the requester's mapping.
	if m, ok := e.arp[ipB]; !ok || m != macB {
		t.Fatal("did not learn sender mapping")
	}
}

func TestICMPEchoReplied(t *testing.T) {
	env := &fakeIPEnv{}
	e := newIP(env, ipA, macA, true)
	ping := proto.BuildICMP(
		proto.EthernetHeader{Dst: macA, Src: macB, Type: proto.EtherTypeIPv4},
		proto.IPv4Header{TTL: 64, Src: ipB, Dst: ipA},
		proto.ICMPEcho{Type: proto.ICMPEchoRequest, Ident: 42, Seq: 7},
		[]byte("payload"))
	pf, _ := proto.DecodeFrame(ping)
	e.Input(pf)
	if len(env.frames) != 1 {
		t.Fatal("no echo reply")
	}
	f, _ := proto.DecodeFrame(env.frames[0])
	if f.ICMP == nil || f.ICMP.Type != proto.ICMPEchoReply || f.ICMP.Ident != 42 ||
		f.ICMP.Seq != 7 || string(f.Payload) != "payload" || f.IP.Dst != ipB {
		t.Fatalf("bad echo reply: %+v payload=%q", f.ICMP, f.Payload)
	}
}

func TestNotForUsDropped(t *testing.T) {
	env := &fakeIPEnv{}
	e := newIP(env, ipA, macA, true)
	other := proto.BuildUDP(
		proto.EthernetHeader{Dst: macA, Src: macB, Type: proto.EtherTypeIPv4},
		proto.IPv4Header{TTL: 64, Src: ipB, Dst: proto.IPv4(10, 0, 0, 99)},
		proto.UDPHeader{SrcPort: 1, DstPort: 2}, nil)
	f, _ := proto.DecodeFrame(other)
	e.Input(f)
	if len(env.delivered) != 0 || e.Stats().NotForUs != 1 {
		t.Fatalf("misdelivered: %+v", e.Stats())
	}
}

func TestFragmentationRoundTrip(t *testing.T) {
	envA := &fakeIPEnv{}
	a := newIP(envA, ipA, macA, true)
	envB := &fakeIPEnv{}
	b := newIP(envB, ipB, macB, true)

	data := make([]byte, 4000)
	for i := range data {
		data[i] = byte(i * 3)
	}
	a.Output(ipB, proto.ProtoUDP, udpPayload(t, ipB, data))
	if a.Stats().FragmentsSent < 3 {
		t.Fatalf("fragments sent = %d", a.Stats().FragmentsSent)
	}
	for _, raw := range envA.frames {
		f, err := proto.DecodeFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) > 1500+proto.EthernetHeaderLen {
			t.Fatalf("fragment exceeds MTU: %d", len(raw))
		}
		b.Input(f)
	}
	if len(envB.delivered) != 1 {
		t.Fatalf("reassembled deliveries = %d", len(envB.delivered))
	}
	got := envB.delivered[0]
	if got.UDP == nil || !bytes.Equal(got.Payload, data) {
		t.Fatalf("reassembly corrupted: %d bytes", len(got.Payload))
	}
	if b.Stats().Reassembled != 1 {
		t.Fatalf("stats: %+v", b.Stats())
	}
}

func TestFragmentReorderTolerated(t *testing.T) {
	envA := &fakeIPEnv{}
	a := newIP(envA, ipA, macA, true)
	envB := &fakeIPEnv{}
	b := newIP(envB, ipB, macB, true)
	data := make([]byte, 5000)
	for i := range data {
		data[i] = byte(i)
	}
	a.Output(ipB, proto.ProtoUDP, udpPayload(t, ipB, data))
	// Deliver fragments in reverse order.
	for i := len(envA.frames) - 1; i >= 0; i-- {
		f, _ := proto.DecodeFrame(envA.frames[i])
		b.Input(f)
	}
	if len(envB.delivered) != 1 || !bytes.Equal(envB.delivered[0].Payload, data) {
		t.Fatal("reverse-order reassembly failed")
	}
}

func TestReassemblyTimeout(t *testing.T) {
	envA := &fakeIPEnv{}
	a := newIP(envA, ipA, macA, true)
	envB := &fakeIPEnv{}
	b := newIP(envB, ipB, macB, true)
	a.Output(ipB, proto.ProtoUDP, udpPayload(t, ipB, make([]byte, 4000)))
	// Deliver only the first fragment.
	f, _ := proto.DecodeFrame(envA.frames[0])
	b.Input(f)
	envB.advance(2 * sim.Second)
	if b.Stats().ReassemblyExpired != 1 {
		t.Fatalf("expiry not recorded: %+v", b.Stats())
	}
	if len(envB.delivered) != 0 {
		t.Fatal("partial packet delivered")
	}
}

func TestLoopback(t *testing.T) {
	env := &fakeIPEnv{}
	e := newIP(env, ipA, macA, true)
	e.Output(ipA, proto.ProtoUDP, udpPayload(t, ipA, []byte("self")))
	if len(env.frames) != 0 {
		t.Fatal("loopback hit the wire")
	}
	if len(env.delivered) != 1 || string(env.delivered[0].Payload) != "self" {
		t.Fatalf("loopback delivery: %+v", env.delivered)
	}
	if e.Stats().Loopback != 1 {
		t.Fatalf("stats: %+v", e.Stats())
	}
}

func TestNoRouteCounted(t *testing.T) {
	env := &fakeIPEnv{}
	e := NewEngine(env, Config{Addr: ipA, Mask: mask, MAC: macA})
	remote := proto.IPv4(192, 168, 1, 1)
	h := proto.UDPHeader{SrcPort: 1, DstPort: 2}
	e.Output(remote, proto.ProtoUDP, h.Marshal(nil, ipA, remote, nil))
	if e.Stats().NoRoute != 1 {
		t.Fatalf("stats: %+v", e.Stats())
	}
}

func TestTSOPath(t *testing.T) {
	env := &fakeIPEnv{}
	e := newIP(env, ipA, macA, true)
	e.OutputTSO(TSO{
		TCP:     proto.TCPHeader{SrcPort: 80, DstPort: 99, Flags: proto.TCPAck},
		Dst:     ipB,
		Payload: make([]byte, 8000),
		MSS:     1460,
	})
	if env.tso != 1 {
		t.Fatalf("TSO descriptors=%d", env.tso)
	}
	// Unresolved MAC falls back to normal output (which queues on ARP).
	env2 := &fakeIPEnv{}
	e2 := newIP(env2, ipA, macA, false)
	e2.OutputTSO(TSO{TCP: proto.TCPHeader{SrcPort: 80, DstPort: 99}, Dst: ipB, Payload: make([]byte, 100), MSS: 1460})
	if env2.tso != 0 {
		t.Fatal("TSO used without ARP entry")
	}
	if e2.Stats().ARPRequestsSent != 1 {
		t.Fatal("fallback did not trigger ARP")
	}
}

// tsoStream checks that frames carry, in order, MSS-bounded TCP segments
// whose sequence numbers follow on from seq and whose payloads concatenate
// to want, with PSH on the last one only.
func tsoStream(t *testing.T, frames []*proto.Frame, seq uint32, mss int, want []byte) {
	t.Helper()
	var got []byte
	for i, f := range frames {
		if f.TCP == nil {
			t.Fatalf("frame %d of %d is not TCP", i, len(frames))
		}
		if len(f.Payload) == 0 || len(f.Payload) > mss {
			t.Fatalf("segment %d carries %d bytes (MSS %d)", i, len(f.Payload), mss)
		}
		if f.TCP.Seq != seq+uint32(len(got)) {
			t.Fatalf("segment %d seq %d, want %d", i, f.TCP.Seq, seq+uint32(len(got)))
		}
		if psh, last := f.TCP.Flags&proto.TCPPsh != 0, i == len(frames)-1; psh != last {
			t.Fatalf("segment %d of %d: PSH=%v", i, len(frames), psh)
		}
		got = append(got, f.Payload...)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%d segments delivered %d of %d bytes, or not the bytes sent", len(frames), len(got), len(want))
	}
}

// TestSoftwareTSOSegmentsAtMSS covers the two OutputTSO branches no NIC
// segments for — loopback and an unresolved next hop. Marshalled as one
// datagram, a super-segment overflows IPv4's 16-bit TotalLen from 65 496
// payload bytes on: 65 496 used to be dropped and 65 536, TCP's largest TSO super-segment,
// to arrive as an empty segment.
func TestSoftwareTSOSegmentsAtMSS(t *testing.T) {
	const mss, seq = 1460, 1000
	for _, n := range []int{8000, 65000, 65495, 65496, 65536} {
		want := make([]byte, n)
		for i := range want {
			want[i] = byte(i*7 + i>>8)
		}
		tso := func() TSO {
			return TSO{
				TCP: proto.TCPHeader{SrcPort: 80, DstPort: 99, Seq: seq, Flags: proto.TCPAck | proto.TCPPsh, Window: 512},
				// OutputTSO owns and releases the payload, as in the stack.
				Payload: append(bufpool.Get(n)[:0], want...),
				MSS:     mss,
			}
		}

		env := &fakeIPEnv{}
		e := newIP(env, ipA, macA, true)
		lo := tso()
		lo.Dst = ipA
		e.OutputTSO(lo)
		if len(env.frames) != 0 || env.tso != 0 {
			t.Fatalf("%d B: loopback reached the driver", n)
		}
		tsoStream(t, env.delivered, seq, mss, want)

		env = &fakeIPEnv{}
		e = newIP(env, ipA, macA, false)
		out := tso()
		out.Dst = ipB
		e.OutputTSO(out)
		if env.tso != 0 || len(env.frames) != 1 { // the ARP request only
			t.Fatalf("%d B: unresolved hop sent %d frames, %d TSO descriptors", n, len(env.frames), env.tso)
		}
		env.frames = nil
		reply, err := proto.DecodeFrame(proto.BuildARP(
			proto.EthernetHeader{Dst: macA, Src: macB, Type: proto.EtherTypeARP},
			proto.ARPPacket{Op: proto.ARPReply, SenderMAC: macB, SenderIP: ipB, TargetMAC: macA, TargetIP: ipA}))
		if err != nil {
			t.Fatal(err)
		}
		e.Input(reply)
		var sent []*proto.Frame
		for i, raw := range env.frames {
			f, err := proto.DecodeFrame(raw)
			if err != nil {
				t.Fatalf("%d B: queued frame %d undecodable: %v", n, i, err)
			}
			if f.Eth.Dst != macB {
				t.Fatalf("%d B: queued frame %d sent to %v", n, i, f.Eth.Dst)
			}
			sent = append(sent, f)
		}
		tsoStream(t, sent, seq, mss, want)
	}
}
