// Command neat-demo boots a complete NEaT web farm on the simulated AMD
// testbed, drives it with httperf-style load, crashes a replica mid-run,
// scales up and lazily scales down — narrating what the system does. It is
// the guided tour of the repository.
//
// Usage:
//
//	neat-demo [-replicas N] [-webs N] [-seed N]
package main

import (
	"flag"
	"fmt"
	"os"

	"neat"
	"neat/internal/app"
	"neat/internal/ipc"
	"neat/internal/report"
	"neat/internal/sim"
)

func main() {
	replicas := flag.Int("replicas", 3, "initial replica count (slots: replicas+1)")
	webs := flag.Int("webs", 4, "lighttpd instances")
	seed := flag.Int64("seed", 7, "simulation seed")
	topo := flag.Bool("topo", false, "print the machine topology (the textual Figure 6/8/10)")
	flag.Parse()

	// Observe attaches the tracing layer: the demo ends by replaying the
	// lifecycle event timeline the management plane recorded. The farm
	// starts with one slot spare for the scale-up demo.
	tb, err := neat.TopologyConfig{
		Seed: *seed, ClientStacks: *webs,
		System: neat.SystemConfig{Replicas: *replicas + 1, Observe: true},
		Tune:   func(sys *neat.System) error { return sys.ScaleDown() },
	}.Build()
	if err != nil {
		fail("%v", err)
	}
	net, server, client := tb.Net, tb.Server, tb.Client
	sys := tb.System

	fmt.Printf("== NEaT demo: %d replicas (1 spare slot), %d lighttpd instances ==\n", *replicas, *webs)
	defer func() {
		if *topo {
			fmt.Println()
			fmt.Print(report.Topology(server.Machine))
		}
	}()

	var servers []*app.HTTPD
	var gens []*app.Loadgen
	for i := 0; i < *webs; i++ {
		h := app.NewHTTPD(server.AppThread(2+*replicas+1+i), fmt.Sprintf("lighttpd%d", i),
			sys.SyscallProc(), ipc.DefaultCosts(), app.HTTPDConfig{
				Port: uint16(8000 + i), Files: map[string]int{"/index": 20},
			})
		h.Start()
		servers = append(servers, h)
		lg := app.NewLoadgen(client.AppThread(2+*webs+i), fmt.Sprintf("httperf%d", i),
			tb.ClientSystem.SyscallProc(), ipc.DefaultCosts(), app.LoadgenConfig{
				Target: server.IP, Port: uint16(8000 + i), URI: "/index",
				Conns: 16, ReqPerConn: 100, Timeout: 200 * sim.Millisecond,
			})
		gens = append(gens, lg)
	}
	net.Sim.RunFor(2 * sim.Millisecond)
	for _, g := range gens {
		g.Start()
	}

	rate := func(d sim.Time) float64 {
		for _, g := range gens {
			g.BeginMeasure()
		}
		net.Sim.RunFor(d)
		var good uint64
		for _, g := range gens {
			good += g.GoodResponses()
		}
		return float64(good) / d.Seconds() / 1000
	}

	net.Sim.RunFor(50 * sim.Millisecond)
	fmt.Printf("steady state:            %6.1f krps, %d live connections, %d NIC filters\n",
		rate(100*sim.Millisecond), sys.TotalConns(), server.NIC.NumFilters())

	fmt.Println("-- crashing replica 0 (all its TCP connections are lost; others undisturbed)")
	sys.Replicas()[0].Procs()[0].Crash(sim.ErrKilled)
	fmt.Printf("during recovery:         %6.1f krps\n", rate(100*sim.Millisecond))
	st := sys.Stats()
	fmt.Printf("recovery: %d restart(s), %d connection(s) lost, slot states %v\n",
		st.Recoveries, st.ConnectionsLost, sys.SlotStates())

	fmt.Println("-- scaling up: activating the spare replica slot")
	if _, err := sys.ScaleUp(); err != nil {
		fail("%v", err)
	}
	fmt.Printf("after scale-up:          %6.1f krps, %d active replicas\n",
		rate(100*sim.Millisecond), sys.NumActive())

	fmt.Println("-- scaling down: lazy termination (existing connections drain first)")
	if err := sys.ScaleDown(); err != nil {
		fail("%v", err)
	}
	fmt.Printf("during lazy termination: %6.1f krps, slot states %v\n",
		rate(100*sim.Millisecond), sys.SlotStates())
	net.Sim.RunFor(500 * sim.Millisecond)
	fmt.Printf("after draining:          slot states %v (%d replicas collected)\n",
		sys.SlotStates(), sys.Stats().ReplicasGarbage)

	var errs uint64
	for _, g := range gens {
		errs += g.Stats().ConnErrors
	}
	fmt.Printf("\ntotals: %d responses served, %d client-visible errors (from the crash), events simulated: %d\n",
		totalResponses(gens), errs, net.Sim.EventsRun())

	reg := sys.Metrics()
	fmt.Printf("server metrics: %d frames in, %d frames out, %d filters installed, %d recoveries\n",
		reg.Counter("nic.rx_frames").Value(), reg.Counter("nic.tx_frames").Value(),
		reg.Counter("core.filters_installed").Value(), reg.Counter("core.recoveries").Value())
	fmt.Println()
	fmt.Print(neat.Timeline(sys.Trace().Events(), "what the management plane did, when").String())
}

func totalResponses(gens []*app.Loadgen) uint64 {
	var n uint64
	for _, g := range gens {
		n += g.Stats().ResponsesOK
	}
	return n
}

// fail reports an error and exits with status 2.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
