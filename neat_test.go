package neat_test

import (
	"fmt"
	"strings"
	"testing"

	"neat"
	"neat/internal/app"
	"neat/internal/ipc"
	"neat/internal/sim"
	"neat/internal/socketlib"
)

// TestPublicAPIRoundTrip exercises the facade the way the quickstart
// example does: boot both machines, run an echo exchange, verify the
// deterministic outcome.
func TestPublicAPIRoundTrip(t *testing.T) {
	tb, err := neat.TopologyConfig{
		Seed: 123, System: neat.SystemConfig{Replicas: 2},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	net, server, client := tb.Net, tb.Server, tb.Client
	sys, clisys := tb.System, tb.ClientSystem

	var echoed string
	srv := apiApp(server.AppThread(5), sys.SyscallProc(), func(ctx *sim.Context, lib *socketlib.Lib) {
		ln := lib.Listen(ctx, 4000, 8)
		ln.OnAccept = func(ctx *sim.Context, s *socketlib.Socket) {
			s.OnData = func(ctx *sim.Context, data []byte, eof bool) {
				if len(data) > 0 {
					s.Send(ctx, data)
				}
			}
		}
	})
	srv.Deliver("go")
	net.Sim.RunFor(neat.Millisecond)

	cli := apiApp(client.AppThread(4), clisys.SyscallProc(), func(ctx *sim.Context, lib *socketlib.Lib) {
		s := lib.Connect(ctx, neat.IPv4(10, 0, 0, 1), 4000)
		s.OnConnect = func(ctx *sim.Context, err error) {
			if err == nil {
				s.Send(ctx, []byte("roundtrip"))
			}
		}
		s.OnData = func(ctx *sim.Context, data []byte, eof bool) { echoed += string(data) }
	})
	cli.Deliver("go")
	net.Sim.RunFor(50 * neat.Millisecond)

	if echoed != "roundtrip" {
		t.Fatalf("echoed %q", echoed)
	}
	if sys.TotalConns() == 0 {
		t.Fatal("no connection established on the NEaT side")
	}
}

// TestXeonModelAvailable covers the second machine model.
func TestXeonModelAvailable(t *testing.T) {
	tb, err := neat.TopologyConfig{
		Seed: 5, Server: neat.Xeon8x2,
		System: neat.SystemConfig{Replicas: 2, Kind: neat.MultiComponent, TSO: true},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Server.Machine.Core(0).NumThreads() != 2 {
		t.Fatal("Xeon should have 2 hardware threads per core")
	}
	if got := len(tb.System.Replicas()); got != 2 {
		t.Fatalf("replicas=%d", got)
	}
}

// TestSystemConfigValidate covers the consolidated configuration surface:
// the zero value works, and each bad field produces an actionable error.
func TestSystemConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     neat.SystemConfig
		wantErr string // empty = valid
	}{
		{"zero-value-defaults", neat.SystemConfig{}, ""},
		{"full-valid", neat.SystemConfig{Replicas: 8, Kind: neat.MultiComponent,
			TSO: true, Watchdog: true, Observe: true}, ""},
		{"negative-replicas", neat.SystemConfig{Replicas: -1}, "Replicas"},
		{"too-many-replicas", neat.SystemConfig{Replicas: 9}, "queue pairs"},
		{"bad-kind", neat.SystemConfig{Kind: neat.ReplicaKind(7)}, "Kind"},
		// The knob groups validate in their declaring packages (range
		// tables there); the facade prefixes the path the user wrote.
		{"cookies-valid", neat.SystemConfig{Guard: neat.GuardConfig{
			SynBacklog: 16, SynCookies: true, SynCookieWatermark: -1}}, ""},
		{"guard-path", neat.SystemConfig{Guard: neat.GuardConfig{SynBacklog: -1}},
			"SystemConfig.Guard.SynBacklog"},
		{"steering-policy", neat.SystemConfig{Steering: neat.SteeringConfig{Policy: "round-robin"}},
			"SystemConfig.Steering.Policy"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error mentioning %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

// TestStartNEaTRejectsOversizedLayout checks the machine-aware check:
// replicas that do not fit the core count fail with a helpful error
// instead of panicking inside the testbed — on the two-machine testbed
// and, through the same compile path, on a farm member.
func TestStartNEaTRejectsOversizedLayout(t *testing.T) {
	// 6 multi-component replicas need cores 2..13 on a 12-core machine.
	oversized := neat.SystemConfig{Replicas: 6, Kind: neat.MultiComponent}
	checkErr := func(what string, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s accepted 6 multi-component replicas on 12 cores", what)
		}
		for _, want := range []string{"cores up to 13", "12 cores", "fewer replicas"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s error %q lacks %q", what, err, want)
			}
		}
	}
	topo := neat.TopologyConfig{Seed: 9, System: oversized}
	checkErr("TopologyConfig.Validate", topo.Validate())
	_, err := topo.Build()
	checkErr("TopologyConfig.Build", err)
	// The Xeon has 8 cores: 4 multi-component replicas need cores 2..9.
	if err := (neat.TopologyConfig{Server: neat.Xeon8x2,
		System: neat.SystemConfig{Replicas: 4, Kind: neat.MultiComponent}}).Validate(); err == nil ||
		!strings.Contains(err.Error(), "8 cores") {
		t.Fatalf("Xeon layout check: %v", err)
	}
	// Validation errors surface before Validate-clean machine checks too.
	if _, err := (neat.TopologyConfig{Seed: 9, System: neat.SystemConfig{Replicas: -3}}).Build(); err == nil {
		t.Fatal("Build accepted negative replicas")
	}

	// The cluster case used to pass Validate and panic in Build with
	// "index out of range [12]".
	cluster := neat.ClusterConfig{
		Farms:   []neat.FarmConfig{{Name: "web", Members: 1, System: oversized}},
		Clients: []neat.ClientConfig{{}},
	}
	checkErr("ClusterConfig.Validate", cluster.Validate())
	_, err = cluster.Build()
	checkErr("ClusterConfig.Build", err)
	if !strings.Contains(err.Error(), `farm "web"`) {
		t.Fatalf("cluster error %q does not name the farm", err)
	}
}

// TestObservabilityFacade exercises the re-exported observability API the
// way the examples do: metrics registry, trace breakdown, event timeline.
func TestObservabilityFacade(t *testing.T) {
	tb, err := neat.TopologyConfig{
		Seed: 123, System: neat.SystemConfig{Replicas: 2, Observe: true},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	net, server, client := tb.Net, tb.Server, tb.Client
	sys, clisys := tb.System, tb.ClientSystem
	if clisys.Trace() != nil {
		t.Fatal("client system should be untraced (Observe not set)")
	}
	tr := sys.Trace()
	if tr == nil {
		t.Fatal("Observe: true but System.Trace() is nil")
	}

	srv := apiApp(server.AppThread(5), sys.SyscallProc(), func(ctx *sim.Context, lib *socketlib.Lib) {
		ln := lib.Listen(ctx, 4000, 8)
		ln.OnAccept = func(ctx *sim.Context, s *socketlib.Socket) {
			s.OnData = func(ctx *sim.Context, data []byte, eof bool) {
				if len(data) > 0 {
					s.Send(ctx, data)
				}
			}
		}
	})
	srv.Deliver("go")
	net.Sim.RunFor(neat.Millisecond)
	cli := apiApp(client.AppThread(4), clisys.SyscallProc(), func(ctx *sim.Context, lib *socketlib.Lib) {
		s := lib.Connect(ctx, neat.IPv4(10, 0, 0, 1), 4000)
		s.OnConnect = func(ctx *sim.Context, err error) {
			if err == nil {
				s.Send(ctx, []byte("ping"))
			}
		}
	})
	cli.Deliver("go")
	net.Sim.RunFor(50 * neat.Millisecond)

	reg := sys.Metrics()
	if reg.Counter("nic.rx_frames").Value() == 0 {
		t.Fatal("nic.rx_frames is zero after a TCP exchange")
	}
	if reg.Counter("syscall.listens").Value() == 0 {
		t.Fatal("syscall.listens is zero after Listen")
	}
	if reg.Gauge("core.replicas_active").Value() != 2 {
		t.Fatalf("core.replicas_active=%v", reg.Gauge("core.replicas_active").Value())
	}
	if reg.String() == "" {
		t.Fatal("empty registry dump")
	}

	var bd neat.Breakdown = tr.Breakdown().Filter("amd.")
	if len(bd) == 0 {
		t.Fatal("empty server-side breakdown after traffic")
	}
	var total uint64
	for _, sp := range bd {
		total += sp.Count
	}
	if total == 0 {
		t.Fatal("breakdown spans carry no messages")
	}
	events := tr.Events()
	if len(events) == 0 || !strings.Contains(neat.Timeline(events, "t").String(), "spawn") {
		t.Fatalf("lifecycle timeline lacks the boot spawns: %v", events)
	}
}

// TestClusterConfigValidate covers the declarative topology surface: the
// minimal config builds, and each bad field produces an actionable error.
func TestClusterConfigValidate(t *testing.T) {
	farm := func(name string) []neat.FarmConfig {
		return []neat.FarmConfig{{Name: name, Members: 1}}
	}
	clients := []neat.ClientConfig{{}}
	cases := []struct {
		name    string
		cfg     neat.ClusterConfig
		wantErr string // empty = valid
	}{
		{"minimal", neat.ClusterConfig{Farms: farm("web"), Clients: clients}, ""},
		{"no-farms", neat.ClusterConfig{Clients: clients}, "farm"},
		{"no-clients", neat.ClusterConfig{Farms: farm("web")}, "client"},
		{"negative-workers", neat.ClusterConfig{Farms: farm("web"), Clients: clients,
			PDESWorkers: -1}, "PDESWorkers"},
		{"nondeterministic-steering", neat.ClusterConfig{
			Farms: []neat.FarmConfig{{Name: "web", Members: 2,
				Steering: neat.SteeringConfig{Policy: "least-loaded"}}},
			Clients: clients}, "deterministic"},
		{"ghost-tenant", neat.ClusterConfig{Farms: farm("web"),
			Clients: []neat.ClientConfig{{Tenant: "ghost"}}}, "tenant"},
		{"bad-member-system", neat.ClusterConfig{
			Farms:   []neat.FarmConfig{{Name: "web", Members: 1, System: neat.SystemConfig{Replicas: 9}}},
			Clients: clients}, "queue pairs"},
		{"oversized-member-layout", neat.ClusterConfig{
			Farms: []neat.FarmConfig{{Name: "web", Members: 1,
				System: neat.SystemConfig{Replicas: 6, Kind: neat.MultiComponent}}},
			Clients: clients}, "12 cores"},
		{"member-guard", neat.ClusterConfig{
			Farms: []neat.FarmConfig{{Name: "web", Members: 1,
				System: neat.SystemConfig{Guard: neat.GuardConfig{IdleDeadline: -1}}}},
			Clients: clients}, "Guard.IdleDeadline"},
		{"farm-steering-policy", neat.ClusterConfig{
			Farms: []neat.FarmConfig{{Name: "web", Members: 1,
				Steering: neat.SteeringConfig{Policy: "round-robin"}}},
			Clients: clients}, "Steering.Policy"},
		{"negative-switch-latency", neat.ClusterConfig{Farms: farm("web"), Clients: clients,
			Switch: neat.SwitchConfig{Latency: -1}}, "switch latency"},
		{"negative-link", neat.ClusterConfig{Farms: farm("web"), Clients: clients,
			Link: neat.LinkConfig{PropDelay: -1}}, "link shape"},
		{"shaped-valid", neat.ClusterConfig{Farms: farm("web"), Clients: clients,
			Switch: neat.SwitchConfig{Name: "spine", Latency: 2 * neat.Microsecond},
			Link:   neat.LinkConfig{BitsPerSec: 40e9, PropDelay: 500}}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

// TestClusterFacadeRoundTrip drives a connection through the whole
// declarative topology: client machine → access link → switch L4 service
// → a farm member's NEaT stack → echo app, with the reply returning
// direct-server-return.
func TestClusterFacadeRoundTrip(t *testing.T) {
	cluster, err := neat.ClusterConfig{
		Farms:   []neat.FarmConfig{{Name: "web", Members: 2}},
		Clients: []neat.ClientConfig{{}},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	farm := cluster.Farm("web")
	if farm == nil || len(farm.Members) != 2 {
		t.Fatalf("farm missing or wrong size: %+v", farm)
	}

	// An echo server on every member (any of them may get the flow).
	for _, m := range farm.Members {
		srv := apiApp(m.Host.AppThread(5), m.Sys.SyscallProc(), func(ctx *sim.Context, lib *socketlib.Lib) {
			ln := lib.Listen(ctx, 4000, 8)
			ln.OnAccept = func(ctx *sim.Context, s *socketlib.Socket) {
				s.OnData = func(ctx *sim.Context, data []byte, eof bool) {
					if len(data) > 0 {
						s.Send(ctx, data)
					}
				}
			}
		})
		srv.Deliver("go")
	}
	cluster.Sim.RunFor(neat.Millisecond)

	var echoed string
	cl := cluster.Clients[0]
	cli := apiApp(cl.Host.AppThread(4), cl.Sys.SyscallProc(), func(ctx *sim.Context, lib *socketlib.Lib) {
		s := lib.Connect(ctx, farm.VIP, 4000)
		s.OnConnect = func(ctx *sim.Context, err error) {
			if err == nil {
				s.Send(ctx, []byte("roundtrip"))
			}
		}
		s.OnData = func(ctx *sim.Context, data []byte, eof bool) { echoed += string(data) }
	})
	cli.Deliver("go")
	cluster.Sim.RunFor(50 * neat.Millisecond)

	if echoed != "roundtrip" {
		t.Fatalf("echoed %q", echoed)
	}
	if st := farm.Service.Stats(); st.NewFlows == 0 {
		t.Fatalf("the L4 service placed no flows: %+v", st)
	}
	if conns := farm.Members[0].Sys.TotalConns() + farm.Members[1].Sys.TotalConns(); conns == 0 {
		t.Fatal("no connection established on any farm member")
	}
}

// webLoad puts one lighttpd on every member of every farm and one httperf
// per farm on client 0, then runs the cluster for d under load.
func webLoad(t *testing.T, cluster *neat.Cluster, d neat.Time) {
	t.Helper()
	cl := cluster.Clients[0]
	var gens []*app.Loadgen
	for fi, farm := range cluster.Farms {
		port := uint16(8000 + fi)
		for mi, m := range farm.Members {
			h := app.NewHTTPD(m.Host.AppThread(10), fmt.Sprintf("web-f%dm%d", fi, mi),
				m.Sys.SyscallProc(), ipc.DefaultCosts(), app.HTTPDConfig{
					Port: port, Files: map[string]int{"/f": 20},
				})
			h.Start()
		}
		gens = append(gens, app.NewLoadgen(cl.Host.AppThread(4+fi), fmt.Sprintf("gen-f%d", fi),
			cl.Sys.SyscallProc(), ipc.DefaultCosts(), app.LoadgenConfig{
				Target: farm.VIP, Port: port, URI: "/f", Conns: 16, ReqPerConn: 50,
			}))
	}
	cluster.Sim.RunFor(2 * neat.Millisecond)
	for _, g := range gens {
		g.Start()
	}
	cluster.Sim.RunFor(d)
	for i, g := range gens {
		if g.Stats().ResponsesOK == 0 {
			t.Fatalf("generator %d got no responses", i)
		}
	}
}

// TestFarmMemberHonoursIPC is the regression for the dropped
// FarmConfig.System.IPC: with CoalesceWakes a loaded member saves
// doorbells, without it none is saved anywhere in the simulation.
func TestFarmMemberHonoursIPC(t *testing.T) {
	saved := func(ipcCfg neat.IPCConfig) uint64 {
		cluster, err := neat.ClusterConfig{
			Farms: []neat.FarmConfig{{Name: "web", Members: 2,
				System: neat.SystemConfig{IPC: ipcCfg}}},
			Clients: []neat.ClientConfig{{}},
		}.Build()
		if err != nil {
			t.Fatal(err)
		}
		webLoad(t, cluster, 20*neat.Millisecond)
		return cluster.Sim.IPCStats().WakesSaved
	}
	if n := saved(neat.IPCConfig{CoalesceWakes: true}); n == 0 {
		t.Fatal("CoalesceWakes on a farm member saved no wakes under load")
	}
	if n := saved(neat.IPCConfig{}); n != 0 {
		t.Fatalf("default IPC config saved %d wakes; coalescing should be off", n)
	}
}

// TestSynCookiesThroughFacade is the regression for the facade's guard
// copy that never gained the cookie fields: cookies switched on through
// neat.SystemConfig reach the engine and answer a SYN burst statelessly.
func TestSynCookiesThroughFacade(t *testing.T) {
	tb, err := neat.TopologyConfig{
		Seed: 3,
		System: neat.SystemConfig{Guard: neat.GuardConfig{
			SynBacklog: 16, SynCookies: true}},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tb.System.Replicas() {
		if g := r.TCP().Config().Guard; !g.SynCookies || g.SynCookieWatermark != 16 {
			t.Fatalf("replica %s guard %+v: cookies did not reach the engine", r.Name(), g)
		}
	}
	h := app.NewHTTPD(tb.Server.AppThread(5), "web", tb.System.SyscallProc(),
		ipc.DefaultCosts(), app.HTTPDConfig{Port: 80, Files: map[string]int{"/f": 20}})
	h.Start()
	tb.Net.Sim.RunFor(2 * neat.Millisecond)
	fl := app.NewSYNFlood(tb.Client.AppThread(6), "synflood", tb.Client.Driver.Proc(),
		ipc.DefaultCosts(), app.SYNFloodConfig{
			Target: tb.Server.IP, TargetMAC: tb.Server.MAC, SrcMAC: tb.Client.MAC, Port: 80,
		})
	fl.Start()
	tb.Net.Sim.RunFor(20 * neat.Millisecond)
	if fl.Stats().SynsSent < 100 {
		t.Fatalf("flood too slow: %d SYNs", fl.Stats().SynsSent)
	}
	if n := tb.System.Metrics().Counter("stack.syn_cookies_sent").Value(); n == 0 {
		t.Fatal("stack.syn_cookies_sent is zero under a SYN burst with SynCookies on")
	}
}

// TestClusterObserveSharesOneTracer: an observed cluster has one tracer,
// attached to its simulator and handed to every member system.
func TestClusterObserveSharesOneTracer(t *testing.T) {
	farms := []neat.FarmConfig{{Name: "a", Members: 2}, {Name: "b", Members: 1}}
	cluster, err := neat.ClusterConfig{
		Farms: farms, Clients: []neat.ClientConfig{{}}, Observe: true,
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	tr := cluster.Farms[0].Members[0].Sys.Trace()
	if tr == nil {
		t.Fatal("Observe: true but a member's Sys.Trace() is nil")
	}
	for _, f := range cluster.Farms {
		for mi, m := range f.Members {
			if m.Sys.Trace() != tr {
				t.Fatalf("farm %s member %d has its own tracer (or none)", f.Name, mi)
			}
		}
	}
	webLoad(t, cluster, 5*neat.Millisecond)
	if len(tr.Breakdown()) == 0 {
		t.Fatal("the shared tracer recorded no spans: it is not attached to the simulator")
	}
	if len(tr.Events()) == 0 {
		t.Fatal("the shared tracer holds no lifecycle events from the member systems")
	}

	// A farm's System.Observe asks for the same thing for that farm only.
	farms[1].System.Observe = true
	cluster, err = neat.ClusterConfig{Farms: farms, Clients: []neat.ClientConfig{{}}}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cluster.Farm("b").Members[0].Sys.Trace() == nil {
		t.Fatal("System.Observe on farm b left its member untraced")
	}
	if cluster.Farm("a").Members[0].Sys.Trace() != nil {
		t.Fatal("farm a did not ask for tracing but its member has a tracer")
	}
}

// apiApp builds a minimal event-driven app process around a socket lib.
func apiApp(th *sim.HWThread, syscall *sim.Proc, start func(*sim.Context, *socketlib.Lib)) *sim.Proc {
	var lib *socketlib.Lib
	proc := sim.NewProc(th, "api-app", sim.HandlerFunc(func(ctx *sim.Context, msg sim.Message) {
		ctx.Charge(300)
		if lib.HandleEvent(ctx, msg) {
			return
		}
		if msg == "go" {
			start(ctx, lib)
		}
	}), sim.ProcConfig{})
	lib = socketlib.New(proc, syscall, ipc.DefaultCosts())
	return proc
}
