package neat

import (
	"fmt"
	"testing"

	"neat/internal/app"
	"neat/internal/core"
	"neat/internal/ipc"
	"neat/internal/sim"
	"neat/internal/tcpeng"
	"neat/internal/testbed"
)

// defaultTCP is the engine configuration used by the ablation benches.
func defaultTCP() tcpeng.Config { return tcpeng.DefaultConfig() }

// runWeb boots a two-machine bed on s with the given server machine and
// NEaT system and `webs` client stacks, attaches `webs` lighttpd+httperf
// pairs, runs a short measured window and returns krps.
func runWeb(b testing.TB, s *sim.Simulator, host testbed.HostConfig, cfg core.Config, webs int) float64 {
	b.Helper()
	tb, err := testbed.NewBed(s, testbed.BedConfig{Server: host, NEaT: cfg, ClientStacks: webs})
	if err != nil {
		b.Fatal(err)
	}
	n, server, client, sys, clisys := tb.Net, tb.Server, tb.Client, tb.NEaT, tb.CliSys
	var gens []*app.Loadgen
	base := server.Machine.NumCores() - webs
	for i := 0; i < webs; i++ {
		h := app.NewHTTPD(server.AppThread(base+i), fmt.Sprintf("web%d", i),
			sys.SyscallProc(), ipc.DefaultCosts(), app.HTTPDConfig{
				Port: uint16(8000 + i), Files: map[string]int{"/f": 20},
			})
		h.Start()
		lg := app.NewLoadgen(client.AppThread(2+webs+i), fmt.Sprintf("gen%d", i),
			clisys.SyscallProc(), ipc.DefaultCosts(), app.LoadgenConfig{
				Target: server.IP, Port: uint16(8000 + i), URI: "/f",
				Conns: 24, ReqPerConn: 100,
			})
		gens = append(gens, lg)
	}
	n.Sim.RunFor(2 * sim.Millisecond)
	for _, g := range gens {
		g.Start()
	}
	n.Sim.RunFor(25 * sim.Millisecond)
	for _, g := range gens {
		g.BeginMeasure()
	}
	window := 50 * sim.Millisecond
	n.Sim.RunFor(window)
	var good uint64
	for _, g := range gens {
		good += g.GoodResponses()
	}
	return float64(good) / window.Seconds() / 1000
}
