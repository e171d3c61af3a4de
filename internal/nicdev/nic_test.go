package nicdev

import (
	"testing"

	"neat/internal/proto"
	"neat/internal/sim"
	"neat/internal/wire"
)

var (
	macA = proto.MAC{2, 0, 0, 0, 0, 1}
	macB = proto.MAC{2, 0, 0, 0, 0, 2}
	ipA  = proto.IPv4(10, 0, 0, 1)
	ipB  = proto.IPv4(10, 0, 0, 2)
)

func tcpFrame(srcPort uint16, payload []byte) []byte {
	return proto.BuildTCP(
		proto.EthernetHeader{Dst: macB, Src: macA, Type: proto.EtherTypeIPv4},
		proto.IPv4Header{TTL: 64, Src: ipA, Dst: ipB},
		proto.TCPHeader{SrcPort: srcPort, DstPort: 80, Flags: proto.TCPAck},
		payload,
	)
}

// testRig wires a NIC+driver on machine B receiving from a raw port on side A.
type testRig struct {
	s      *sim.Simulator
	link   *wire.Link
	nic    *NIC
	driver *Driver
	// received per replica proc
	got map[string][]*proto.Frame
}

func newRig(t *testing.T, nQueues int) *testRig {
	t.Helper()
	s := sim.New(1)
	m := sim.NewMachine(s, "srv", 4, 1, 1_000_000_000)
	l := wire.NewLink(s)
	nic := NewNIC(s, "nic0", macB, l, 1, nQueues)
	drv := NewDriver(m.Thread(0, 0), "nicdrv", nic, DefaultDriverCosts())
	rig := &testRig{s: s, link: l, nic: nic, driver: drv, got: map[string][]*proto.Frame{}}
	for q := 0; q < nQueues; q++ {
		name := string(rune('A' + q))
		p := sim.NewProc(m.Thread(1+q%3, 0), name, sim.HandlerFunc(func(ctx *sim.Context, msg sim.Message) {
			if rx, ok := msg.(*proto.Frame); ok {
				rig.got[name] = append(rig.got[name], rx)
			}
		}), sim.ProcConfig{})
		drv.BindQueue(q, p)
	}
	return rig
}

func TestRSSSteeringIsFlowStable(t *testing.T) {
	rig := newRig(t, 4)
	// Same flow twice must land on the same queue; spread across flows.
	for i := 0; i < 2; i++ {
		rig.link.Transmit(0, tcpFrame(1111, []byte{byte(i)}))
	}
	rig.s.Drain()
	total := 0
	for name, frames := range rig.got {
		if len(frames) > 0 && len(frames) != 2 {
			t.Fatalf("flow split across queues: %s got %d", name, len(frames))
		}
		total += len(frames)
	}
	if total != 2 {
		t.Fatalf("delivered %d, want 2", total)
	}
}

func TestExactFilterOverridesRSS(t *testing.T) {
	rig := newRig(t, 4)
	flow := proto.Flow{Src: ipA, Dst: ipB, SrcPort: 2222, DstPort: 80, Proto: proto.ProtoTCP}
	// Find the RSS queue, then force a different one by filter.
	rssQ := int(flow.Hash()) % 4
	filterQ := (rssQ + 1) % 4
	if err := rig.nic.InstallFilter(flow, filterQ); err != nil {
		t.Fatal(err)
	}
	rig.link.Transmit(0, tcpFrame(2222, nil))
	rig.s.Drain()
	name := string(rune('A' + filterQ))
	if len(rig.got[name]) != 1 {
		t.Fatalf("filtered frame did not reach queue %d: %v", filterQ, rig.got)
	}
	if rig.nic.Stats().RxFiltered != 1 {
		t.Fatalf("stats: %+v", rig.nic.Stats())
	}
	rig.nic.RemoveFilter(flow)
	rig.link.Transmit(0, tcpFrame(2222, nil))
	rig.s.Drain()
	if rig.nic.Stats().RxHashed != 1 {
		t.Fatal("filter removal did not fall back to RSS")
	}
}

// fixedQueue is an RSS policy that sends every unpinned flow to one queue,
// or drops it when the queue is -1.
type fixedQueue int

func (q fixedQueue) QueueFor(uint32) int { return int(q) }

func TestRSSRestrictedQueues(t *testing.T) {
	rig := newRig(t, 4)
	rig.nic.SetRSSPolicy(fixedQueue(2))
	for p := 0; p < 16; p++ {
		rig.link.Transmit(0, tcpFrame(uint16(3000+p), nil))
	}
	rig.s.Drain()
	if got := len(rig.got["C"]); got != 16 {
		t.Fatalf("restricted RSS: queue C got %d of 16 (%v)", got, rig.got)
	}
	// A policy answering -1 is the explicit drop-all state: unmatched flows
	// are dropped in hardware, exact filters keep steering.
	rig.nic.SetRSSPolicy(fixedQueue(-1))
	pinned := proto.Flow{Src: ipA, Dst: ipB, SrcPort: 3000, DstPort: 80, Proto: proto.ProtoTCP}
	if err := rig.nic.InstallFilter(pinned, 1); err != nil {
		t.Fatal(err)
	}
	rig.link.Transmit(0, tcpFrame(3000, nil)) // filtered: still delivered
	rig.link.Transmit(0, tcpFrame(4000, nil)) // unmatched: dropped
	rig.s.Drain()
	if got := len(rig.got["B"]); got != 1 {
		t.Fatalf("exact filter stopped steering in drop-all state: %v", rig.got)
	}
	if n := rig.nic.Stats().RxDropNoRSS; n != 1 {
		t.Fatalf("RxDropNoRSS=%d, want 1", n)
	}
}

func TestUnboundQueueDropsUntilRebind(t *testing.T) {
	rig := newRig(t, 1)
	rig.driver.BindQueue(0, nil) // replica crashed
	rig.link.Transmit(0, tcpFrame(1, nil))
	rig.s.Drain()
	if rig.driver.Stats().RxUnbound != 1 {
		t.Fatalf("unbound drop not counted: %+v", rig.driver.Stats())
	}
	// Recovered replica announces itself.
	m := rig.s.Machines()[0]
	var recovered []*proto.Frame
	p := sim.NewProc(m.Thread(2, 0), "recovered", sim.HandlerFunc(func(ctx *sim.Context, msg sim.Message) {
		if rx, ok := msg.(*proto.Frame); ok {
			recovered = append(recovered, rx)
		}
	}), sim.ProcConfig{})
	rig.driver.BindQueue(0, p)
	rig.link.Transmit(0, tcpFrame(2, nil))
	rig.s.Drain()
	if len(recovered) != 1 {
		t.Fatal("rebound queue did not deliver")
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	s := sim.New(1)
	m := sim.NewMachine(s, "srv", 2, 1, 1_000_000_000)
	l := wire.NewLink(s)
	nic := NewNIC(s, "nic0", macB, l, 1, 1)
	nic.queueDepth = 4
	drv := NewDriver(m.Thread(0, 0), "nicdrv", nic, DefaultDriverCosts())
	_ = drv
	// No driver target and never drained: overflow after 4.
	for i := 0; i < 10; i++ {
		nic.Receive(tcpFrame(uint16(i), nil))
	}
	if nic.Stats().RxDropFull != 6 {
		t.Fatalf("overflow drops = %d, want 6", nic.Stats().RxDropFull)
	}
}

func TestBadFrameCounted(t *testing.T) {
	rig := newRig(t, 1)
	rig.nic.Receive([]byte{1, 2, 3})
	if rig.nic.Stats().RxDropBad != 1 {
		t.Fatalf("bad frame not counted")
	}
}

func TestDriverTransmit(t *testing.T) {
	s := sim.New(1)
	m := sim.NewMachine(s, "srv", 2, 1, 1_000_000_000)
	l := wire.NewLink(s)
	var rx [][]byte
	l.Attach(0, portFunc(func(f []byte) { rx = append(rx, f) }))
	nic := NewNIC(s, "nic0", macB, l, 1, 1)
	drv := NewDriver(m.Thread(0, 0), "nicdrv", nic, DefaultDriverCosts())
	drv.Proc().Deliver(TxFrame{Raw: tcpFrame(5, []byte("x"))})
	s.Drain()
	if len(rx) != 1 {
		t.Fatalf("tx frames = %d", len(rx))
	}
	if drv.Stats().TxSent != 1 {
		t.Fatalf("driver stats: %+v", drv.Stats())
	}
}

type portFunc func([]byte)

func (f portFunc) Receive(frame []byte) { f(frame) }

func TestTSOSegmentation(t *testing.T) {
	s := sim.New(1)
	m := sim.NewMachine(s, "srv", 2, 1, 1_000_000_000)
	l := wire.NewLink(s)
	var frames [][]byte
	l.Attach(0, portFunc(func(f []byte) { frames = append(frames, f) }))
	nic := NewNIC(s, "nic0", macB, l, 1, 1)
	drv := NewDriver(m.Thread(0, 0), "nicdrv", nic, DefaultDriverCosts())

	payload := make([]byte, 3500)
	for i := range payload {
		payload[i] = byte(i)
	}
	drv.Proc().Deliver(TxTSO{
		Eth:     proto.EthernetHeader{Dst: macA, Src: macB, Type: proto.EtherTypeIPv4},
		IP:      proto.IPv4Header{TTL: 64, Src: ipB, Dst: ipA},
		TCP:     proto.TCPHeader{SrcPort: 80, DstPort: 999, Seq: 1000, Flags: proto.TCPAck | proto.TCPPsh, Window: 100},
		Payload: payload,
		MSS:     1460,
	})
	s.Drain()
	if len(frames) != 3 {
		t.Fatalf("TSO produced %d segments, want 3", len(frames))
	}
	var reassembled []byte
	seq := uint32(1000)
	for i, raw := range frames {
		f, err := proto.DecodeFrame(raw)
		if err != nil {
			t.Fatalf("segment %d undecodable: %v", i, err)
		}
		if f.TCP.Seq != seq {
			t.Fatalf("segment %d seq=%d, want %d", i, f.TCP.Seq, seq)
		}
		last := i == len(frames)-1
		if got := f.TCP.Flags&proto.TCPPsh != 0; got != last {
			t.Fatalf("segment %d PSH=%v", i, got)
		}
		reassembled = append(reassembled, f.Payload...)
		seq += uint32(len(f.Payload))
	}
	if len(reassembled) != 3500 {
		t.Fatalf("reassembled %d bytes", len(reassembled))
	}
	for i := range reassembled {
		if reassembled[i] != byte(i) {
			t.Fatalf("payload corrupted at %d", i)
		}
	}
	if nic.Stats().TSORequests != 1 || nic.Stats().TSOSegments != 3 {
		t.Fatalf("stats: %+v", nic.Stats())
	}
}

func TestTSOEmptyPayloadSendsOneSegment(t *testing.T) {
	s := sim.New(1)
	m := sim.NewMachine(s, "srv", 1, 1, 1_000_000_000)
	l := wire.NewLink(s)
	var frames [][]byte
	l.Attach(0, portFunc(func(f []byte) { frames = append(frames, f) }))
	nic := NewNIC(s, "nic0", macB, l, 1, 1)
	drv := NewDriver(m.Thread(0, 0), "nicdrv", nic, DefaultDriverCosts())
	drv.Proc().Deliver(TxTSO{
		Eth: proto.EthernetHeader{Dst: macA, Src: macB, Type: proto.EtherTypeIPv4},
		IP:  proto.IPv4Header{TTL: 64, Src: ipB, Dst: ipA},
		TCP: proto.TCPHeader{SrcPort: 80, DstPort: 999, Flags: proto.TCPFin | proto.TCPAck},
	})
	s.Drain()
	if len(frames) != 1 {
		t.Fatalf("frames=%d, want 1", len(frames))
	}
	f, err := proto.DecodeFrame(frames[0])
	if err != nil || f.TCP.Flags&proto.TCPFin == 0 {
		t.Fatalf("FIN-only TSO broken: %v %+v", err, f)
	}
}

func TestDriverCostCategories(t *testing.T) {
	rig := newRig(t, 4)
	for i := 0; i < 50; i++ {
		rig.link.Transmit(0, tcpFrame(uint16(100+i), nil))
	}
	rig.s.Drain()
	st := rig.driver.Proc().Stats()
	if st.CyclesByCat[sim.CostPolling] == 0 {
		t.Fatal("driver charged no polling cycles")
	}
	if st.CyclesByCat[sim.CostKernel] == 0 {
		t.Fatal("driver charged no kernel cycles")
	}
	if st.CyclesByCat[sim.CostProcessing] == 0 {
		t.Fatal("driver charged no processing cycles")
	}
}
