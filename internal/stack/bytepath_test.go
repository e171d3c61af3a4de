package stack

import (
	"bytes"
	"testing"

	"neat/internal/sim"
	"neat/internal/tcpeng"
)

// patterned returns n bytes no two MSS-sized windows of which are alike, so
// a segment delivered twice, dropped or taken from a recycled buffer shows.
func patterned(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + i>>8*17 + i>>16)
	}
	return b
}

// received returns the one byte stream a sink server collected.
func received(t *testing.T, a *echoServer) []byte {
	t.Helper()
	if len(a.got) != 1 {
		t.Fatalf("server saw %d connections, want 1", len(a.got))
	}
	for _, b := range a.got {
		return b
	}
	return nil
}

// TestLoopbackBulkTSO sends 300 KB from one application of a replica to
// another over the replica's own address with TSO on: no NIC segments a
// loopback super-segment, so the IP engine does, at MSS. (As one datagram a
// 64 KiB TSO payload overflowed IPv4's TotalLen and arrived
// empty; the stream then only completed through retransmission.) The
// payload also exceeds the send buffer, so the refused-bytes path of opSend
// runs. The replica is multi-component: a single-component replica loops
// back inside the caller's stack frame and has never completed a TCP
// handshake with itself.
func TestLoopbackBulkTSO(t *testing.T) {
	cfg := tcpeng.DefaultConfig()
	cfg.TSO = true
	r := newRig(t, Multi, 1, cfg)
	srvM := r.s.Machines()[0]
	rep := r.replicas[0]
	srvApp := newEchoServer(srvM.Thread(5, 0), rep.SockProc())
	srvApp.sink = true
	payload := patterned(300 << 10)
	cliApp := newEchoClient(srvM.Thread(6, 0), rep.SockProc(), payload)

	srvApp.proc.Deliver("listen")
	r.s.RunFor(sim.Millisecond)
	cliApp.proc.Deliver("start") // connects to srvIP: the replica's own address
	r.s.RunFor(sim.Second)

	if cliApp.fail != nil {
		t.Fatalf("connect failed: %v", cliApp.fail)
	}
	if got := received(t, srvApp); !bytes.Equal(got, payload) {
		t.Fatalf("received %d of %d bytes, or not the bytes sent", len(got), len(payload))
	}
	if st := rep.TCP().Stats(); st.Retransmits != 0 {
		t.Fatalf("%d retransmissions on a lossless loopback", st.Retransmits)
	}
	if lo := rep.IP().Stats().Loopback; lo < uint64(len(payload)/1460) { // 1460: the engine's MSS
		t.Fatalf("%d loopback packets for %d bytes: not segmented at MSS", lo, len(payload))
	}
	if tx := r.srvNIC.Stats().TxFrames; tx != 0 {
		t.Fatalf("%d loopback frames reached the NIC", tx)
	}
}

// TestDroppedTxTSOCorruptsNothing loses two consecutive messages to the
// sending machine's NIC driver in the middle of a bulk transfer — TSO
// descriptors, each with the buffer the stack copied the super-segment into.
// TCP retransmits from the send buffer, which compacts in between, and the
// stream arrives whole. (Only two, out of a 64 KiB send buffer: the
// receiver holds 64 out-of-order segments, and this Reno spends one
// backed-off timeout per segment it has to resend beyond that.)
func TestDroppedTxTSOCorruptsNothing(t *testing.T) {
	cfg := tcpeng.DefaultConfig()
	cfg.TSO, cfg.SendBuf = true, 64<<10
	r := newRig(t, Single, 1, cfg)
	srvApp := newEchoServer(r.s.Machines()[0].Thread(5, 0), r.replicas[0].SockProc())
	srvApp.sink = true
	payload := patterned(2 << 20)
	cliApp := newEchoClient(r.s.Machines()[1].Thread(2, 0), r.client.SockProc(), payload)

	srvApp.proc.Deliver("listen")
	r.s.RunFor(sim.Millisecond)
	cliApp.proc.Deliver("start")
	r.s.RunFor(500 * sim.Microsecond) // connected; the transfer is under way
	drv := r.cliDrv.Proc()
	tso0 := r.cliNIC.Stats().TSORequests
	drv.SetDropRate(1)
	for i := 0; drv.Stats().DropInjected < 2; i++ {
		if i == 1000 {
			t.Fatalf("%d messages reached the driver in 1 ms of a bulk transfer", drv.Stats().DropInjected)
		}
		r.s.RunFor(sim.Microsecond)
	}
	drv.SetDropRate(0)
	r.cliDrv.Kick() // an RX notification may be among the losses
	r.s.RunFor(2 * sim.Second)

	if got := received(t, srvApp); !bytes.Equal(got, payload) {
		t.Fatalf("received %d of %d bytes, or not the bytes sent", len(got), len(payload))
	}
	if st := r.client.TCP().Stats(); st.Retransmits == 0 || r.cliNIC.Stats().TSORequests == tso0 {
		t.Fatalf("%d retransmissions, %d TSO requests: the losses did not hit a TSO transfer",
			st.Retransmits, r.cliNIC.Stats().TSORequests-tso0)
	}
}
