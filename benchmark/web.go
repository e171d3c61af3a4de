package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"neat/internal/experiments"
	"neat/internal/sim"
	"neat/internal/testbed"
)

// webParams shapes the two-machine web workloads: the paper's AMD host
// with two single-component replicas serving lighttpd instances to
// closed-loop httperf generators over one 10 Gb/s link.
type webParams struct {
	name        string
	webs        int // lighttpd instances = httperf generators
	connsPerGen int
	reqPerConn  int
	fileSize    int
	tso         bool
	warm        sim.Time
	window      sim.Time
}

// repOpts selects what a repetition records beyond its sample.
type repOpts struct {
	observe bool     // attach trace.Tracer (modeled per-hop time)
	pdes    int      // PDES workers, 0 = the sequential engine
	spans   *spanLog // harness spans, nil when not tracing
	parent  int      // span the repetition runs under
	profile *profiler
}

// webStagger is the span the web generators' start offsets are drawn from.
const webStagger = 2 * sim.Millisecond

// startStaggered starts the generators at seed-drawn offsets inside the
// first span of the warm-up, so the seed decides how the closed loops
// interleave. start(i) is called in offset order with the clock advanced.
func startStaggered(s *sim.Simulator, seed int64, span sim.Time, n int, start func(i int)) {
	rng := rand.New(rand.NewSource(seed))
	offs := make([]sim.Time, n)
	order := make([]int, n)
	for i := range offs {
		offs[i] = sim.Time(rng.Int63n(int64(span)))
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return offs[order[a]] < offs[order[b]] })
	base := s.Now()
	for _, i := range order {
		s.RunUntil(base + offs[i])
		start(i)
	}
}

// bedConfig is the bed of the workload: the AMD host, cores 0 driver, 1
// SYSCALL, 2-3 replicas, one lighttpd per core from 4 up.
func (p webParams) bedConfig(seed int64, observe bool) experiments.BedConfig {
	locs := make([]testbed.ThreadLoc, p.webs)
	for i := range locs {
		locs[i] = testbed.ThreadLoc{Core: 4 + i}
	}
	return experiments.BedConfig{
		Seed: seed, Machine: experiments.AMD,
		ReplicaSlots: testbed.SingleSlots(2, 2),
		SyscallLoc:   testbed.ThreadLoc{Core: 1},
		WebLocs:      locs,
		ConnsPerGen:  p.connsPerGen, ReqPerConn: p.reqPerConn,
		FileSize: p.fileSize, TSO: p.tso,
		Observe: observe,
	}
}

func (p webParams) run(seed int64, o repOpts) (*sample, error) {
	sm := &sample{}
	rep := o.spans.begin(p.name, "rep", o.parent)
	defer o.spans.end(rep)

	t0 := time.Now()
	sp := o.spans.begin(p.name, "build", rep)
	b, err := experiments.NewBed(p.bedConfig(seed, o.observe))
	o.spans.end(sp)
	if err != nil {
		return nil, err
	}
	s := b.Net.Sim
	// The bed's own app.Loadgen generators are never started; the
	// harness's generators take their threads and their client stacks.
	gens := make([]*loadGen, p.webs)
	for i := range gens {
		gens[i] = newLoadGen(b.Client.AppThread(2+p.webs+i), fmt.Sprintf("gen%d", i),
			b.CliSys.SyscallProc(), genConfig{
				target: b.Server.IP, port: uint16(8000 + i),
				conns: p.connsPerGen, reqPerConn: p.reqPerConn, bodySize: p.fileSize,
			})
	}

	sp = o.spans.begin(p.name, "warm", rep)
	warmEnd := s.Now() + p.warm
	startStaggered(s, seed, webStagger, len(gens), func(i int) { gens[i].start() })
	s.RunUntil(warmEnd)
	o.spans.end(sp)

	for _, g := range gens {
		g.beginMeasure()
	}
	onServer := func(m *sim.Machine) bool { return m == b.Server.Machine }
	snap0, cyc0 := snapSystem(b.NEaT), procCycles(s, onServer)
	sim0, link0 := snapSim(s), b.Net.Link.Stats()
	runtime.GC()
	sm.setupS = time.Since(t0).Seconds()

	sp = o.spans.begin(p.name, "window", rep)
	meter := newHostMeter()
	o.profile.start()
	meter.start()
	s.RunFor(p.window)
	meter.stop()
	o.profile.stop()
	o.spans.end(sp)
	sm.host, sm.calibNs = meter.done()

	t1 := time.Now()
	sm.live = liveHeap()
	sm.simWindow = p.window
	c := &sm.counts
	c.addWindow(snap0, snapSystem(b.NEaT))
	c.addCycles(cyc0, procCycles(s, onServer))
	c.addSim(sim0, snapSim(s))
	c.addLink(b.Net.Link, link0, sim0.now)

	t := tallyGens(gens)
	sm.ops, sm.failed, sm.bodyBytes = t.good, t.failed, t.bodyBytes
	if t.mismatches != 0 {
		sm.violations = append(sm.violations,
			fmt.Sprintf("%d replies differ from app.SyntheticBody(%d) in length or bytes", t.mismatches, p.fileSize))
	}
	for i, h := range b.Webs {
		if st := h.Stats(); st.BadReqs != 0 || st.NotFound != 0 {
			sm.violations = append(sm.violations,
				fmt.Sprintf("lighttpd %d: %d bad requests, %d not found", i, st.BadReqs, st.NotFound))
		}
	}
	sm.attempted = sm.ops + sm.failed
	sm.unexpected = sm.failed
	sm.setLatencies(t.latsUs)
	sm.digest = digestOf(b.Registry().String(), fmt.Sprint(t.good, t.failed, t.bodyBytes, sm.latP50Us, sm.latTailUs))
	if b.Trace != nil {
		sm.hops, c.traceSpans = foldHops(b.Trace, func(hop string) bool {
			return !strings.HasPrefix(hop, "client")
		})
	}
	sm.setupS += time.Since(t1).Seconds()
	return sm, nil
}
