package neat_test

import (
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
// the zero value boots, and each bad field makes Build fail with an
// actionable error.
func TestSystemConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     neat.SystemConfig
		wantErr string // empty = valid
	}{
		{"zero-value-defaults", neat.SystemConfig{}, ""},
		{"full-valid", neat.SystemConfig{Replicas: 5, Kind: neat.MultiComponent,
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
			_, err := neat.TopologyConfig{System: tc.cfg}.Build()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Build() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Build() = nil, want error mentioning %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Build() = %q, want mention of %q", err, tc.wantErr)
			}
		})
	}
}

// TestStartNEaTRejectsOversizedLayout checks the machine-aware check:
// replicas that do not fit the core count fail with a helpful error
// instead of panicking inside the testbed.
func TestStartNEaTRejectsOversizedLayout(t *testing.T) {
	// 6 multi-component replicas need cores 2..13 on a 12-core machine.
	_, err := neat.TopologyConfig{Seed: 9,
		System: neat.SystemConfig{Replicas: 6, Kind: neat.MultiComponent}}.Build()
	if err == nil {
		t.Fatal("Build accepted 6 multi-component replicas on 12 cores")
	}
	for _, want := range []string{"cores up to 13", "12 cores", "fewer replicas"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Build error %q lacks %q", err, want)
		}
	}
	// The Xeon has 8 cores: 4 multi-component replicas need cores 2..9.
	if _, err := (neat.TopologyConfig{Server: neat.Xeon8x2,
		System: neat.SystemConfig{Replicas: 4, Kind: neat.MultiComponent}}).Build(); err == nil ||
		!strings.Contains(err.Error(), "8 cores") {
		t.Fatalf("Xeon layout check: %v", err)
	}
	// Field errors surface before the machine check.
	if _, err := (neat.TopologyConfig{Seed: 9, System: neat.SystemConfig{Replicas: -3}}).Build(); err == nil {
		t.Fatal("Build accepted negative replicas")
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
	for i, r := range tb.System.Replicas() {
		if g := r.TCP().Config().Guard; !g.SynCookies || g.SynCookieWatermark != 16 {
			t.Fatalf("replica %d guard %+v: cookies did not reach the engine", i, g)
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
