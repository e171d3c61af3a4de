package udpeng

import (
	"bytes"
	"testing"
	"testing/quick"

	"neat/internal/proto"
)

var (
	ipA = proto.IPv4(10, 0, 0, 1)
	ipB = proto.IPv4(10, 0, 0, 2)
)

type fakeUDPEnv struct {
	out       [][]byte
	outDst    []proto.Addr
	delivered []delivery
}

type delivery struct {
	s    *Socket
	src  proto.Addr
	port uint16
	data []byte
}

func (e *fakeUDPEnv) Output(dst proto.Addr, transport []byte) {
	e.out = append(e.out, transport)
	e.outDst = append(e.outDst, dst)
}

func (e *fakeUDPEnv) Deliver(s *Socket, src proto.Addr, srcPort uint16, data []byte) {
	e.delivered = append(e.delivered, delivery{s, src, srcPort, data})
}

func frameFor(t *testing.T, dstPort uint16, data []byte) *proto.Frame {
	t.Helper()
	raw := proto.BuildUDP(
		proto.EthernetHeader{Type: proto.EtherTypeIPv4},
		proto.IPv4Header{TTL: 64, Src: ipB, Dst: ipA},
		proto.UDPHeader{SrcPort: 9999, DstPort: dstPort}, data)
	f, err := proto.DecodeFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBindSendReceive(t *testing.T) {
	env := &fakeUDPEnv{}
	e := NewEngine(env, ipA)
	s, err := e.Bind(2000)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SendTo(ipB, 3000, []byte("out")); err != nil {
		t.Fatal(err)
	}
	if len(env.out) != 1 || env.outDst[0] != ipB {
		t.Fatalf("output: %v", env.outDst)
	}
	var h proto.UDPHeader
	payload, err := h.Unmarshal(env.out[0], ipA, ipB)
	if err != nil || h.SrcPort != 2000 || h.DstPort != 3000 || string(payload) != "out" {
		t.Fatalf("datagram: %+v %q err=%v", h, payload, err)
	}

	e.Input(frameFor(t, 2000, []byte("in")))
	if len(env.delivered) != 1 {
		t.Fatal("no delivery")
	}
	d := env.delivered[0]
	if d.s != s || d.src != ipB || d.port != 9999 || !bytes.Equal(d.data, []byte("in")) {
		t.Fatalf("delivery: %+v", d)
	}
}

func TestUnboundPortDropped(t *testing.T) {
	env := &fakeUDPEnv{}
	e := NewEngine(env, ipA)
	e.Input(frameFor(t, 4000, []byte("x")))
	if len(env.delivered) != 0 || e.Stats().NoSocket != 1 {
		t.Fatalf("stats: %+v", e.Stats())
	}
}

func TestDuplicateBindRejected(t *testing.T) {
	e := NewEngine(&fakeUDPEnv{}, ipA)
	if _, err := e.Bind(53); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Bind(53); err != ErrPortInUse {
		t.Fatalf("want ErrPortInUse, got %v", err)
	}
}

func TestEphemeralBindUniqueProperty(t *testing.T) {
	e := NewEngine(&fakeUDPEnv{}, ipA)
	f := func(n uint8) bool {
		seen := map[uint16]bool{}
		for i := 0; i < int(n); i++ {
			s, err := e.Bind(0)
			if err != nil {
				return false
			}
			if seen[s.Port()] || s.Port() < 32768 {
				return false
			}
			seen[s.Port()] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCloseReleasesPort(t *testing.T) {
	env := &fakeUDPEnv{}
	e := NewEngine(env, ipA)
	s, _ := e.Bind(1234)
	s.Close()
	if len(e.binds) != 0 {
		t.Fatal("port not released")
	}
	if err := s.SendTo(ipB, 1, nil); err != ErrClosed {
		t.Fatalf("send on closed: %v", err)
	}
	if _, err := e.Bind(1234); err != nil {
		t.Fatal("rebind after close failed")
	}
	s.Close() // double close is a no-op
}

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats { return e.stats }
