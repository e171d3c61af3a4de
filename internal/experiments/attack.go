package experiments

import (
	"fmt"

	"neat/internal/app"
	"neat/internal/core"
	"neat/internal/ipc"
	"neat/internal/metrics"
	"neat/internal/proto"
	"neat/internal/report"
	"neat/internal/sim"
	"neat/internal/stack"
	"neat/internal/steer"
	"neat/internal/tcpeng"
	"neat/internal/testbed"
)

// The goodput-under-attack campaign measures attack containment: every
// hostile-client archetype (internal/app/hostile.go) aimed at exactly one
// of four guarded replicas, under both placement policies. Aiming works by
// 4-tuple selection — the attacker (and each legitimate generator) fixes
// its local ports so the RSS flow hash lands on a chosen replica. Each
// generator is pinned to "its" replica the same way, so client-side
// goodput decomposes per replica and the campaign can report what the
// paper's isolation story predicts: the attacked replica absorbs the
// damage, the clean replicas' goodput is retained.
//
// Guards are on everywhere (bounded SYN backlog, header-progress deadline,
// idle deadline); the unguarded collapse is pinned by the unit tests in
// internal/app instead — without guards a SYN flood starves the listener
// and slowloris holds slots forever.

// attackKind enumerates the campaign's attack axis.
type attackKind int

const (
	attackNone attackKind = iota
	attackSlowloris
	attackSynFlood
	attackChurn
)

func (k attackKind) String() string {
	switch k {
	case attackNone:
		return "none"
	case attackSlowloris:
		return "slowloris"
	case attackSynFlood:
		return "synflood"
	case attackChurn:
		return "churn"
	}
	return "unknown"
}

// attackKinds is the report-order attack axis.
var attackKinds = []attackKind{attackNone, attackSlowloris, attackSynFlood, attackChurn}

// attackPolicies is the report-order placement axis: hash placement can be
// aimed at (the tuple determines the replica), least-loaded resists aiming
// (placement ignores the tuple), so the same attack diffuses.
var attackPolicies = []steer.PolicyKind{steer.PolicyHash, steer.PolicyLeastLoaded}

// aimedPorts returns a deterministic PortPlan yielding monotonically
// increasing local ports whose flow hash places {src, dst, port, dstPort}
// on replica slot of slots under hash placement (QueueFor =
// active[hash%slots]). Plans walking the same (dst, dstPort) tuple space
// must start in disjoint ranges so the client stack never sees a local
// port collide.
func aimedPorts(src, dst proto.Addr, dstPort uint16, slots, slot int, start uint16) app.PortPlan {
	p := uint32(start)
	return func() uint16 {
		for {
			p++
			port := uint16(p)
			if port < 1024 {
				p = 1024
				port = 1024
			}
			f := proto.Flow{Src: src, Dst: dst, SrcPort: port, DstPort: dstPort, Proto: proto.ProtoTCP}
			if int(f.Hash())%slots == slot {
				return port
			}
		}
	}
}

// aimedSpoof returns a SYN-flood spoofing plan cycling 50 unassigned
// in-subnet source addresses, with each source port chosen so the spoofed
// flow hashes onto replica slot of slots.
func aimedSpoof(dst proto.Addr, dstPort uint16, slots, slot int) func(uint64) (proto.Addr, uint16) {
	return func(i uint64) (proto.Addr, uint16) {
		src := dst
		src[3] = byte(200 + i%50)
		p := uint16(1024 + (i*7919)%60000)
		for {
			f := proto.Flow{Src: src, Dst: dst, SrcPort: p, DstPort: dstPort, Proto: proto.ProtoTCP}
			if int(f.Hash())%slots == slot {
				return src, p
			}
			p++
			if p < 1024 {
				p = 1024
			}
		}
	}
}

// attackOut is one cell's measurement, decomposed by generator aim.
type attackOut struct {
	total        Measurement
	attackedKRPS float64 // generator aimed at the attacked replica
	cleanKRPS    float64 // generators aimed at the three clean replicas
	cleanP99     sim.Time
	guard        tcpeng.Stats
	accepted     []uint64
	embryonic    int // half-open PCBs resident when the window closed
	err          error
}

// attackGuard is the campaign's guard configuration: tight enough to
// engage within a quick measurement window, loose enough that the
// header-progress floor sits below one legitimate request head (~32 bytes)
// delivered in a single segment.
func attackGuard() tcpeng.GuardConfig {
	return tcpeng.GuardConfig{
		SynBacklog:     64,
		HeaderDeadline: 20 * sim.Millisecond,
		HeaderMinBytes: 24,
		IdleDeadline:   50 * sim.Millisecond,
	}
}

// attackRun measures one (attack, policy) cell: 4 guarded single-component
// replicas, 4 aimed generators, the attack aimed at replica 0 (k=1 of
// N=4).
func attackRun(o Options, kind attackKind, policy steer.PolicyKind) attackOut {
	return attackRunGuard(o, kind, policy, attackGuard(), attackTuning{})
}

// attackTuning adjusts an attack's intensity beyond the hostile-client
// defaults (zero values keep them).
type attackTuning struct {
	floodBurst    int      // SYNs per flood interval
	floodInterval sim.Time // flood burst pacing
}

// attackRunGuard is attackRun with an explicit guard configuration and
// attack tuning — the SYN-cookie comparison swaps the handshake defense
// (and turns the flood up) while keeping the rest of the cell identical.
func attackRunGuard(o Options, kind attackKind, policy steer.PolicyKind, guard tcpeng.GuardConfig, tune attackTuning) attackOut {
	const replicas = 4
	srvIP := proto.IPv4(10, 0, 0, 1) // testbed.AMD.Host's address
	cliIP := proto.IPv4(10, 0, 0, 2) // the bed's default client machine
	// Generator i walks ports from 1024+i*4096 aimed at replica i; the
	// attacks walk disjoint high ranges of web 0's tuple space.
	plans := make([]app.PortPlan, replicas)
	for i := range plans {
		plans[i] = aimedPorts(cliIP, srvIP, uint16(8000+i), replicas, i, uint16(1024+i*4096))
	}
	cfg := BedConfig{
		Seed: o.seed(), Machine: AMD, Kind: stack.Single,
		ReplicaSlots: testbed.SingleSlots(2, replicas),
		SyscallLoc:   core.ThreadLoc{Core: 1},
		WebLocs:      coreRange(2+replicas, replicas),
		ConnsPerGen:  8, ReqPerConn: 100,
		Timeout:  100 * sim.Millisecond,
		Steering: steer.Config{Policy: policy},
		Guard:    guard,
		GenPorts: plans,
	}
	b, err := NewBed(cfg)
	if err != nil {
		return attackOut{err: err}
	}

	// Mount the attack on a free client core, against web 0's port, aimed
	// at replica 0.
	atkCore := 2 + 2*replicas
	switch kind {
	case attackNone:
	case attackSlowloris:
		app.NewSlowloris(b.Client.AppThread(atkCore), "slowloris",
			b.CliSys.SyscallProc(), ipc.DefaultCosts(), app.SlowlorisConfig{
				Target: srvIP, Port: 8000, Conns: 24,
				Ports: aimedPorts(cliIP, srvIP, 8000, replicas, 0, 50000),
			}).Start()
	case attackSynFlood:
		app.NewSYNFlood(b.Client.AppThread(atkCore), "synflood",
			b.Client.Driver.Proc(), ipc.DefaultCosts(), app.SYNFloodConfig{
				Target: srvIP, TargetMAC: b.Server.MAC, SrcMAC: b.Client.MAC,
				Port:     8000,
				Burst:    tune.floodBurst,
				Interval: tune.floodInterval,
				Spoof:    aimedSpoof(srvIP, 8000, replicas, 0),
			}).Start()
	case attackChurn:
		// A short hold bounds the churn rate (and so the port budget) while
		// still burning handshake work and connection slots.
		app.NewConnChurn(b.Client.AppThread(atkCore), "churn",
			b.CliSys.SyscallProc(), ipc.DefaultCosts(), app.ConnChurnConfig{
				Target: srvIP, Port: 8000, Conns: 16, Hold: 2 * sim.Millisecond,
				Ports: aimedPorts(cliIP, srvIP, 8000, replicas, 0, 40000),
			}).Start()
	}

	out := attackOut{total: b.Run(o.warm(), o.window())}
	window := o.window()
	out.attackedKRPS = metrics.KRate(b.Gens[0].GoodResponses(), window)
	var cleanGood uint64
	var cleanLat metrics.Histogram
	for _, g := range b.Gens[1:] {
		cleanGood += g.GoodResponses()
		cleanLat.Merge(g.Latency())
	}
	out.cleanKRPS = metrics.KRate(cleanGood, window)
	out.cleanP99 = cleanLat.Quantile(0.99)
	for _, r := range b.NEaT.Replicas() {
		st := r.TCP().Stats()
		out.guard.SynShed += st.SynShed
		out.guard.SlowlorisReaped += st.SlowlorisReaped
		out.guard.DroppedSynBacklog += st.DroppedSynBacklog
		out.guard.SynCookiesSent += st.SynCookiesSent
		out.guard.SynCookiesValidated += st.SynCookiesValidated
		out.guard.SynCookiesRejected += st.SynCookiesRejected
		out.accepted = append(out.accepted, st.AcceptedConns)
		out.embryonic += r.TCP().EmbryonicConns()
	}
	return out
}

// GoodputUnderAttack runs the full campaign: every attack kind × placement
// policy, same seed per cell, and reports clean-replica goodput retention
// against the attack-free cell of the same policy.
func GoodputUnderAttack(o Options) *Result {
	res := &Result{Name: "Goodput under attack: hostile clients aimed at 1 of 4 guarded replicas"}

	type cell struct {
		kind   attackKind
		policy steer.PolicyKind
	}
	var cells []cell
	for _, p := range attackPolicies {
		for _, k := range attackKinds {
			cells = append(cells, cell{kind: k, policy: p})
		}
	}
	outs := RunParallel(len(cells), o.Workers, func(i int) attackOut {
		return attackRun(o, cells[i].kind, cells[i].policy)
	})

	// Retention baseline: the attack-free cell of the same policy.
	baseClean := map[steer.PolicyKind]float64{}
	for i, c := range cells {
		if c.kind == attackNone && outs[i].err == nil {
			baseClean[c.policy] = outs[i].cleanKRPS
		}
	}

	tab := &report.Table{
		Title: "Clean-replica goodput retention per attack (guards on; attack aimed at replica 0)",
		Columns: []string{"attack", "policy", "total krps", "attacked krps",
			"clean krps", "retention", "clean p99", "errors", "shed/reaped/dropped",
			"accepted/replica"},
	}
	for i, c := range cells {
		out := outs[i]
		if out.err != nil {
			tab.AddRow(c.kind.String(), c.policy.String(), "-", "-", "-", "-", "-",
				out.err.Error(), "-", "-")
			continue
		}
		retention := "-"
		if base := baseClean[c.policy]; base > 0 && c.kind != attackNone {
			retention = fmt.Sprintf("%.0f%%", 100*out.cleanKRPS/base)
		}
		tab.AddRow(c.kind.String(), c.policy.String(),
			fmt.Sprintf("%.1f", out.total.KRPS),
			fmt.Sprintf("%.1f", out.attackedKRPS),
			fmt.Sprintf("%.1f", out.cleanKRPS),
			retention,
			fmt.Sprintf("%v", out.cleanP99),
			out.total.Errors,
			fmt.Sprintf("%d/%d/%d", out.guard.SynShed, out.guard.SlowlorisReaped,
				out.guard.DroppedSynBacklog),
			joinCounts(out.accepted))
	}
	res.Tables = append(res.Tables, tab)
	res.Tables = append(res.Tables, synCookieComparison(o))
	res.Notef("attacks and generators aim by 4-tuple: local ports are chosen so the RSS flow hash lands on the intended replica")
	res.Notef("generator i is pinned to replica i, so \"clean krps\" is the goodput of the three unattacked replicas")
	res.Notef("retention = clean krps / clean krps of the attack-free cell under the same policy")
	res.Notef("guards: SYN backlog %d (oldest-first shed), header deadline %v (min %d B), idle deadline %v",
		attackGuard().SynBacklog, attackGuard().HeaderDeadline,
		attackGuard().HeaderMinBytes, attackGuard().IdleDeadline)
	res.Notef("least-loaded placement resists aiming (placement ignores the tuple), so the attack diffuses across replicas — as does the generators' pinning")
	res.Notef("SYN cookies: the flood cell re-run with stateless handshake offload instead of backlog shedding — no half-open PCB survives the window and the attacked replica keeps serving")
	return res
}

// synCookieComparison re-runs the aimed SYN-flood cell under two handshake
// defenses: the campaign's backlog-shedding baseline and stateless
// SYN-cookie offload. Cookies hold the victim's PCB table free of
// embryonic entries (a flood SYN allocates nothing), so the attacked
// replica's goodput recovers toward the attack-free level.
func synCookieComparison(o Options) *report.Table {
	// Both rows share a tight 16-slot backlog and a flood hot enough
	// (160k SYN/s) that oldest-first shedding recycles legitimate half-open
	// slots before their ACK returns — the regime the stateless handshake
	// is for. Hotter floods saturate the replica's CPU instead, where no
	// handshake defense can win back goodput.
	shedGuard := attackGuard()
	shedGuard.SynBacklog = 16
	cookieGuard := shedGuard
	cookieGuard.SynCookies = true
	cookieGuard.SynCookieWatermark = -1 // force cookies for every SYN
	guards := []struct {
		name string
		cfg  tcpeng.GuardConfig
	}{
		{"backlog shed", shedGuard},
		{"syn cookies", cookieGuard},
	}
	tune := attackTuning{floodBurst: 4, floodInterval: 25 * sim.Microsecond}
	outs := RunParallel(len(guards), o.Workers, func(i int) attackOut {
		return attackRunGuard(o, attackSynFlood, steer.PolicyHash, guards[i].cfg, tune)
	})
	tab := &report.Table{
		Title: "SYN-flood handshake defense: backlog shedding vs stateless cookies (hash placement, aimed at replica 0)",
		Columns: []string{"defense", "total krps", "attacked krps", "clean krps",
			"errors", "shed/dropped", "cookies sent/valid/rej", "embryonic@end"},
	}
	for i, g := range guards {
		out := outs[i]
		if out.err != nil {
			tab.AddRow(g.name, "-", "-", "-", out.err.Error(), "-", "-", "-")
			continue
		}
		tab.AddRow(g.name,
			fmt.Sprintf("%.1f", out.total.KRPS),
			fmt.Sprintf("%.1f", out.attackedKRPS),
			fmt.Sprintf("%.1f", out.cleanKRPS),
			out.total.Errors,
			fmt.Sprintf("%d/%d", out.guard.SynShed, out.guard.DroppedSynBacklog),
			fmt.Sprintf("%d/%d/%d", out.guard.SynCookiesSent,
				out.guard.SynCookiesValidated, out.guard.SynCookiesRejected),
			fmt.Sprintf("%d", out.embryonic))
	}
	return tab
}
