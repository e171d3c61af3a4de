package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"neat/internal/experiments"
	"neat/internal/faultinject"
	"neat/internal/sim"
	"neat/internal/testbed"
)

// clusterParams shapes cluster_faults: the cluster bed (3 farms × 2
// members × 3 replicas behind L4 VIPs on one switch, 4 clients, 2 tenants)
// under closed-loop load, with a replica crash and a machine kill inside
// the window.
type clusterParams struct {
	name        string
	connsPerGen int
	fileSize    int
	timeout     sim.Time
	warm        sim.Time
	window      sim.Time
	slice       sim.Time
	crashAt     sim.Time // into the window: TCP-component crash in farm0/member0
	killAt      sim.Time // into the window: KillMachine(1, 1)
}

// Farm roles. farm0 and farm2 share a tenant (and client machines), farm1
// is the other tenant's.
const (
	crashFarm   = 0
	killFarm    = 1
	controlFarm = 2
)

func (p clusterParams) run(seed int64, o repOpts) (*sample, error) {
	sm := &sample{}
	rep := o.spans.begin(p.name, "rep", o.parent)
	defer o.spans.end(rep)

	t0 := time.Now()
	sp := o.spans.begin(p.name, "build", rep)
	b, err := experiments.NewClusterBed(experiments.ClusterBedConfig{
		Seed: seed, PDESWorkers: o.pdes,
		// Three replicas, not the default two: farm and NIC steer by the
		// same flow hash, so with two members and two replicas (hash%2 both
		// times) every member would serve from one replica and idle the
		// other, and a crash of the idle one would lose nothing.
		ReplicasPerMember: 3,
		ConnsPerGen:       p.connsPerGen, ReqPerConn: 50,
		FileSize: p.fileSize, Timeout: p.timeout,
		Observe: o.observe,
	})
	o.spans.end(sp)
	if err != nil {
		return nil, err
	}
	s := b.Sim
	// The injector draws from its own seeded stream, so the seed decides
	// which replica of the member dies without touching the cluster's
	// RNG-free paths.
	inj := faultinject.New(rand.New(rand.NewSource(seed)), nil)

	// The harness's generators stand where the bed's own (never started)
	// app.Loadgen generators stand: client k runs one per farm of its
	// tenant against the farm VIP, each walking its own fixed local-port
	// range so that placement does not depend on event interleaving.
	var gens []*loadGen
	var genFarm []int
	for k, cl := range b.Cluster.Clients {
		core := 4 // client cores: 0 driver, 1 syscall, 2 stack, 3 spare
		for fi, farm := range b.Cluster.Farms {
			if farm.Tenant != cl.Tenant {
				continue
			}
			next := uint16(20000 + len(gens)*2048)
			gens = append(gens, newLoadGen(cl.Host.AppThread(core), fmt.Sprintf("gen-c%df%d", k, fi),
				cl.Sys.SyscallProc(), genConfig{
					target: farm.VIP, port: uint16(8000 + fi),
					conns: p.connsPerGen, reqPerConn: 50, bodySize: p.fileSize, timeout: p.timeout,
					ports: func() uint16 { next++; return next - 1 },
				}))
			genFarm = append(genFarm, fi)
			core++
		}
	}

	// The generators start within 10 µs of each other, practically together
	// as under ClusterBed.Run, not over 2 ms like the web workloads': the
	// host cost of this bed has distinct modes (≈ 12, 28 and 34 µs per
	// request on the host this was built on) selected by how the start
	// times fall, an effect of the timer wheel's parked slot (README.md,
	// "Findings").
	// Starting together always lands in the 28 µs mode, the one the
	// repository's own cluster campaign runs in.
	sp = o.spans.begin(p.name, "warm", rep)
	warmEnd := s.Now() + p.warm
	startStaggered(s, seed, 10*sim.Microsecond, len(gens), func(i int) { gens[i].start() })
	s.RunUntil(warmEnd)
	o.spans.end(sp)

	nf := len(b.Cluster.Farms)
	for _, g := range gens {
		g.beginMeasure()
	}
	var members []*testbed.FarmMember
	servers := map[*sim.Machine]bool{}
	for _, f := range b.Cluster.Farms {
		for _, m := range f.Members {
			members = append(members, m)
			servers[m.Host.Machine] = true
		}
	}
	onServer := func(m *sim.Machine) bool { return servers[m] }
	snaps0 := make([]sysSnap, len(members))
	links0 := make([][2]uint64, len(members))
	for i, m := range members {
		snaps0[i] = snapSystem(m.Sys)
		links0[i] = m.Host.Net.Link.Stats().Bytes
	}
	cyc0 := procCycles(s, onServer)
	sw0 := b.Cluster.Switch.Stats()
	sim0 := snapSim(s)
	runtime.GC()
	sm.setupS = time.Since(t0).Seconds()

	// The window, in slices: per farm, responses and errors so far at each
	// slice end. Faults are applied between slices, where every domain is
	// quiescent (a PDES barrier).
	slices := int(p.window / p.slice)
	resp := make([][]uint64, slices)
	errs := make([][]uint64, slices)
	crashSlice, killSlice := int(p.crashAt/p.slice), int(p.killAt/p.slice)
	var injected int

	sp = o.spans.begin(p.name, "window", rep)
	meter := newHostMeter()
	o.profile.start()
	meter.start()
	for k := 0; k < slices; k++ {
		switch k {
		case crashSlice:
			if _, ok := inj.InjectKind(b.Cluster.Farms[crashFarm].Members[0].Sys, faultinject.KindCrash, "tcp"); ok {
				injected++
			}
		case killSlice:
			b.Cluster.KillMachine(killFarm, 1)
			injected++
		}
		s.RunFor(p.slice)
		resp[k], errs[k] = make([]uint64, nf), make([]uint64, nf)
		for i, g := range gens {
			resp[k][genFarm[i]] += g.responses
			errs[k][genFarm[i]] += g.errors
		}
	}
	meter.stop()
	o.profile.stop()
	o.spans.end(sp)
	sm.host, sm.calibNs = meter.done()

	t1 := time.Now()
	sm.live = liveHeap()
	sm.simWindow = p.window
	c := &sm.counts
	for i, m := range members {
		c.addWindow(snaps0[i], snapSystem(m.Sys))
		for dir := 0; dir < 2; dir++ { // busiest server access link
			c.linkUtil = max(c.linkUtil, m.Host.Net.Link.Utilization(dir, links0[i][dir], sim0.now))
		}
	}
	c.addCycles(cyc0, procCycles(s, onServer))
	c.addSim(sim0, snapSim(s))
	sw1 := b.Cluster.Switch.Stats()
	c.wireFrames = sw1.RxFrames - sw0.RxFrames
	c.wireDropped = (sw1.DropPortDwn + sw1.DropNoRoute) - (sw0.DropPortDwn + sw0.DropNoRoute)
	for _, f := range b.Cluster.Farms {
		st := f.Service.Stats()
		c.wireDropped += st.DropDown + st.DropNoBackend + st.DropBad
	}
	if barriers, _, doms := s.PDESStats(); doms != nil {
		c.pdesBarriers = barriers
	}
	c.faults = uint64(injected)

	t := tallyGens(gens)
	sm.ops, sm.failed, sm.bodyBytes = t.good, t.failed, t.bodyBytes
	if t.mismatches != 0 {
		sm.violations = append(sm.violations,
			fmt.Sprintf("%d replies differ from app.SyntheticBody(%d) in length or bytes", t.mismatches, p.fileSize))
	}
	farmFailed := make([]uint64, nf)
	for i, g := range gens {
		farmFailed[genFarm[i]] += g.failed()
	}
	sm.attempted = sm.ops + sm.failed
	sm.unexpected = farmFailed[controlFarm]
	if farmFailed[controlFarm] != 0 {
		sm.violations = append(sm.violations,
			fmt.Sprintf("control farm%d logged %d failed operations", controlFarm, farmFailed[controlFarm]))
	}
	if injected != 2 {
		sm.violations = append(sm.violations, fmt.Sprintf("%d of 2 faults applied", injected))
	}
	// Errors before the first fault are nobody's fault but the stack's.
	if crashSlice > 0 {
		for f, e := range errs[crashSlice-1] {
			if e != 0 {
				sm.unexpected += e
				sm.violations = append(sm.violations, fmt.Sprintf("farm%d logged %d errors before any fault", f, e))
			}
		}
	}
	c.faultErrs = sm.failed
	sm.setLatencies(t.latsUs)

	c.recoveryUs = recoveryUs(resp, crashFarm, crashSlice, killSlice, p.slice)
	c.failoverUs = failoverUs(errs, killFarm, killSlice, p.slice)
	var dead bool
	for _, ev := range b.Cluster.Events() {
		if ev.Kind == testbed.FarmMemberDead && ev.Farm == b.Cluster.Farms[killFarm].Name && ev.Member == 1 {
			dead = true
			c.detectUs = float64(ev.At-(warmEnd+p.killAt)) / 1e3
		}
	}
	if !dead && slices > killSlice+int(2*sim.Millisecond/p.slice) {
		sm.violations = append(sm.violations, "the farm controller never declared the killed machine dead")
	}

	parts := []string{fmt.Sprintf("%+v %+v", sw1, b.Cluster.Events())}
	for _, m := range members {
		parts = append(parts, m.Sys.Metrics().String())
	}
	for _, g := range gens {
		parts = append(parts, fmt.Sprint(g.responses, g.discarded, g.errors, g.bodyBytes))
	}
	parts = append(parts, fmt.Sprint(sm.latP50Us, sm.latTailUs))
	sm.digest = digestOf(parts...)
	if b.Trace != nil {
		sm.hops, c.traceSpans = foldHops(b.Trace, func(hop string) bool {
			return !strings.HasPrefix(hop, "client")
		})
	}
	sm.setupS += time.Since(t1).Seconds()
	return sm, nil
}

// recoveryUs is the time from the crash to the end of the last slice,
// before the next fault, in which the farm served less than 90 % of its
// mean pre-fault slice rate.
func recoveryUs(resp [][]uint64, farm, crash, until int, slice sim.Time) float64 {
	if crash < 1 || crash >= len(resp) {
		return 0
	}
	pre := float64(resp[crash-1][farm]) / float64(crash)
	last := crash - 1
	for k := crash; k < until && k < len(resp); k++ {
		if float64(resp[k][farm]-resp[k-1][farm]) < 0.9*pre {
			last = k
		}
	}
	return float64(sim.Time(last+1-crash)*slice) / 1e3
}

// failoverUs is the time from the kill to the end of the last slice in
// which the farm's generators logged a new error.
func failoverUs(errs [][]uint64, farm, kill int, slice sim.Time) float64 {
	if kill < 1 || kill >= len(errs) {
		return 0
	}
	last := kill - 1
	for k := kill; k < len(errs); k++ {
		if errs[k][farm] > errs[k-1][farm] {
			last = k
		}
	}
	return float64(sim.Time(last+1-kill)*slice) / 1e3
}
