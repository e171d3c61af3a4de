package app

import (
	"neat/internal/core"
	"neat/internal/metrics"
	"testing"

	"neat/internal/ipc"
	"neat/internal/sim"
	"neat/internal/stack"
	"neat/internal/tcpeng"
	"neat/internal/testbed"
)

func TestDNSRequestResponse(t *testing.T) {
	b := bootWebBed(t, testbed.BedConfig{
		Server: testbed.AMD.Host(1),
		NEaT: core.Config{
			Kind: stack.Single, TCP: tcpeng.DefaultConfig(),
			Slots:   testbed.SingleSlots(2, 1),
			Syscall: core.ThreadLoc{Core: 1},
		},
	})
	n, server, client, sys, clisys := b.net, b.server, b.client, b.sys, b.clisys

	srv := NewDNSServer(server.AppThread(3), "resolver", sys.SyscallProc(),
		ipc.DefaultCosts(), DNSServerConfig{})
	srv.Start()
	n.Sim.RunFor(sim.Millisecond)
	if !srv.Ready() {
		t.Fatal("resolver bind failed")
	}

	cli := NewDNSClient(client.AppThread(3), "lookups", clisys.SyscallProc(),
		ipc.DefaultCosts(), DNSClientConfig{Target: server.IP})
	cli.Start()
	n.Sim.RunFor(100 * sim.Millisecond)

	cst := cli.Stats()
	if cst.QueriesSent < 500 {
		t.Fatalf("queries sent = %d", cst.QueriesSent)
	}
	if cst.Timeouts != 0 || cst.Mismatched != 0 {
		t.Fatalf("lookup failures: %+v", cst)
	}
	// Everything but the last few in-flight lookups resolved.
	if cst.ResponsesOK+8 < cst.QueriesSent {
		t.Fatalf("responses=%d for %d queries", cst.ResponsesOK, cst.QueriesSent)
	}
	sst := srv.Stats()
	if sst.Queries != sst.Answers || sst.BadQuery != 0 {
		t.Fatalf("server view: %+v", sst)
	}
	if cli.Latency().Count() == 0 || cli.Latency().Mean() <= 0 {
		t.Fatal("no lookup latency recorded")
	}

	// Stop cleanly: no further queries issue.
	cli.Stop()
	n.Sim.RunFor(10 * sim.Millisecond)
	sent := cli.Stats().QueriesSent
	n.Sim.RunFor(50 * sim.Millisecond)
	if cli.Stats().QueriesSent != sent {
		t.Fatal("Stop did not halt query issue")
	}
}

// Latency returns the lookup-latency histogram.
func (c *DNSClient) Latency() *metrics.Histogram { return &c.latency }

// Ready reports whether the UDP bind completed.
func (s *DNSServer) Ready() bool { return s.ready }
