// Command benchmark is the repository's one benchmark: four workloads,
// each measured end to end at host speed (what running the simulator
// costs) and at modeled speed (what the simulated stack achieves), and —
// with -trace 1 or -traced — layer by layer. README.md in this directory
// documents every workload and metric.
//
//	go run ./benchmark                       # every workload, timed pass
//	go run ./benchmark -traced               # plus the per-layer pass
//	go run ./benchmark -repeat 3             # three sets, spread per metric
//	go run ./benchmark -workload web_small -seed 7 -seconds 20 -trace 0
//	go run ./benchmark -manifest > BENCHMARK.json   # after changing a table
//
// With one -workload the last line of standard output is a JSON object
// {"correct","attempted","failed","metrics"}; any correctness violation
// exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"neat/internal/sim"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string // why the workload exists: what it stresses that the others do not
	load string // the closed loop, in words
	run  func(seed int64, o repOpts) (*sample, error)
	// layers are the parameters the layer drivers run at for this workload.
	layers layerParams
	pdes   bool // re-run under PDES with 1 and 2 workers in the traced pass
}

// The four workloads at full scale.
var (
	webSmall = webParams{name: "web_small", webs: 6, connsPerGen: 24, reqPerConn: 100,
		fileSize: 20, warm: 25 * sim.Millisecond, window: 100 * sim.Millisecond}
	webBulk = webParams{name: "web_bulk", webs: 2, connsPerGen: 8, reqPerConn: 100,
		fileSize: 64 << 10, tso: true, warm: 25 * sim.Millisecond, window: 150 * sim.Millisecond}
	connScale     = connParams{name: "conn_scale", conns: 100_000, warm: 8192, batch: 1024, echo: 10}
	clusterFaults = clusterParams{name: "cluster_faults", connsPerGen: 16, fileSize: 64,
		timeout: 20 * sim.Millisecond, warm: 25 * sim.Millisecond, window: 120 * sim.Millisecond,
		slice: 500 * sim.Microsecond, crashAt: 30 * sim.Millisecond, killAt: 60 * sim.Millisecond}
)

// workloads returns the four workloads; toy shrinks them for the smoke
// test (a few ms of simulated time, a couple of thousand connections).
func workloads(toy bool) []workload {
	small, bulk, conn, cluster := webSmall, webBulk, connScale, clusterFaults
	if toy {
		small.warm, small.window = 3*sim.Millisecond, 5*sim.Millisecond
		bulk.warm, bulk.window = 3*sim.Millisecond, 5*sim.Millisecond
		conn.conns, conn.warm, conn.batch = 2000, 256, 256
		cluster.warm, cluster.window = 3*sim.Millisecond, 5*sim.Millisecond
		cluster.timeout = 2 * sim.Millisecond
		cluster.crashAt, cluster.killAt = 1*sim.Millisecond, 2*sim.Millisecond
	}
	ws := []workload{
		{name: small.name, run: small.run,
			why:    "20 B responses on 144 closed-loop connections: per-message cost is everything (sim events and timers, ipc, nicdev, tcpeng segment in/out, socketlib); the stack is the modeled bottleneck",
			load:   fmt.Sprintf("closed loop, %d generators × %d connections, %d req/conn, %d B file", small.webs, small.connsPerGen, small.reqPerConn, small.fileSize),
			layers: layerParams{payload: 128, conns: small.webs * small.connsPerGen, replicas: 2}},
		{name: bulk.name, run: bulk.run,
			why:    "64 KiB responses with TSO saturate the 10 Gb/s link: per-byte cost dominates (proto checksums, buffer copies, TSO segmentation, GC); a per-message optimisation should predict no change here",
			load:   fmt.Sprintf("closed loop, %d generators × %d connections, %d req/conn, %d KiB file, TSO", bulk.webs, bulk.connsPerGen, bulk.reqPerConn, bulk.fileSize>>10),
			layers: layerParams{payload: 1460, conns: bulk.webs * bulk.connsPerGen, replicas: 2}},
		{name: conn.name, run: conn.run,
			why:    "100000 connection lifecycles on two bare TCP engines: timers armed once and stopped, PCB pool and table growth, memory instead of dispatch; bypasses ipc, nicdev and socketlib",
			load:   fmt.Sprintf("closed loop, %d connection lifecycles, %d connects or closes outstanding, every %dth echoes %d B", conn.conns, conn.batch, conn.echo, csEchoBytes),
			layers: layerParams{payload: csEchoBytes, conns: conn.conns, timerHorizon: 30 * sim.Second, replicas: 1}},
		{name: cluster.name, run: cluster.run, pdes: true,
			why:    "the composed system: switch VIPs, six server machines, core recovery and farm failover under a replica crash and a machine kill; the only workload where failures and recovery times are not trivial",
			load:   fmt.Sprintf("closed loop, 6 generators × %d connections over 3 farm VIPs, 50 req/conn, %d B file, %v timeout", cluster.connsPerGen, cluster.fileSize, cluster.timeout),
			layers: layerParams{payload: 256, conns: 6 * cluster.connsPerGen / 18, replicas: 3, backends: 2}},
	}
	for i := range ws {
		ws[i].layers.quick = toy
	}
	return ws
}

// result is one pass of one workload, ready to print.
type result struct {
	workload  string
	traced    bool
	reps      int
	attempted uint64
	failed    uint64
	problems  []string // correctness violations; empty means correct
	metrics   map[string]float64
	samples   uint64 // latency samples behind the percentiles
	notes     []string
}

// minRepetitions is the fewest repetitions a pass of the command takes,
// however short -seconds is.
const minRepetitions = 3

// repsFor repeats a workload on fresh beds, same seed, until the budget is
// spent (at least minReps times).
func repsFor(w workload, seed int64, seconds float64, minReps int, o repOpts) ([]*sample, error) {
	var out []*sample
	start := time.Now()
	for len(out) < minReps || time.Since(start).Seconds() < seconds {
		s, err := w.run(seed, o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		out = append(out, s)
	}
	return out, nil
}

// audit collects what makes a pass incorrect: violations a repetition
// found itself, failures the workload does not provoke, and simulated
// results that differ between repetitions of one seed.
func audit(samples []*sample) []string {
	var problems []string
	first := samples[0]
	for i, s := range samples {
		for _, v := range s.violations {
			problems = append(problems, fmt.Sprintf("rep %d: %s", i, v))
		}
		if s.unexpected != 0 {
			problems = append(problems, fmt.Sprintf("rep %d: %d of %d operations failed", i, s.unexpected, s.attempted))
		}
		if s.ops == 0 {
			problems = append(problems, fmt.Sprintf("rep %d: no operation completed", i))
		}
		if s.digest != first.digest || s.ops != first.ops || s.failed != first.failed ||
			s.latP50Us != first.latP50Us || s.latTailUs != first.latTailUs || s.bodyBytes != first.bodyBytes {
			problems = append(problems, fmt.Sprintf("rep %d: simulated results differ from rep 0 (digest %s vs %s)", i, s.digest, first.digest))
		}
	}
	return problems
}

// timedPass is the untraced pass: the end-to-end metrics.
func timedPass(w workload, seed int64, seconds float64, minReps int) (*result, error) {
	samples, err := repsFor(w, seed, seconds, minReps, repOpts{parent: -1})
	if err != nil {
		return nil, err
	}
	return &result{
		workload: w.name, reps: len(samples),
		attempted: samples[0].attempted, failed: samples[0].unexpected,
		problems: audit(samples),
		metrics:  endToEndOf(samples),
		samples:  samples[0].latSamples,
		notes:    []string{calibNote(samples)},
	}, nil
}

// noisyHost is the quartile spread of a pass's calibrations, as a share of
// their median, above which its host times should not be trusted.
const noisyHost = 0.10

// calibNote says how fast and how steadily the calibration kernel ran
// around the repetitions of a pass, and flags a noisy host.
func calibNote(samples []*sample) string {
	var calib []float64
	for _, s := range samples {
		calib = append(calib, s.calibNs)
	}
	q1, q3 := quartiles(calib)
	spread := div(q3-q1, median(calib))
	note := fmt.Sprintf("calibration kernel: median %.3f ns/step, quartile spread %.1f%% over %d repetitions",
		median(calib), spread*100, len(calib))
	if spread > noisyHost {
		note += " — NOISY HOST, the host times of this pass are unreliable"
	}
	return note
}

// tracedPassOf is the per-layer pass. The budget is split between
// untraced CPU-profiled repetitions (the baseline tracing overhead is
// measured against), repetitions with trace.Tracer attached, the PDES
// re-runs and the layer drivers.
func tracedPassOf(w workload, seed int64, seconds float64, minReps int, spans *spanLog) (*result, error) {
	t := &tracedPass{}
	root := spans.begin(w.name, "traced pass", -1)
	defer spans.end(root)

	prof := newProfiler()
	var err error
	if t.base, err = repsFor(w, seed, seconds*0.35, minReps, repOpts{spans: spans, parent: root, profile: prof}); err != nil {
		return nil, err
	}
	if prof.err != nil {
		return nil, prof.err
	}
	t.shares = prof.shares()
	if t.traced, err = repsFor(w, seed, seconds*0.35, 1, repOpts{spans: spans, parent: root, observe: true}); err != nil {
		return nil, err
	}
	r := &result{
		workload: w.name, traced: true, reps: len(t.base) + len(t.traced),
		attempted: t.base[0].attempted, failed: t.base[0].unexpected,
		problems: audit(append(append([]*sample(nil), t.base...), t.traced...)),
		samples:  t.base[0].latSamples,
	}
	if w.pdes {
		if t.pdes, err = pdesRuns(w, seed, t.base[0].digest, spans, root); err != nil {
			return nil, err
		}
		if !t.pdes.equal {
			r.problems = append(r.problems, "PDES digests differ between 1 and 2 workers")
		}
		r.notes = append(r.notes, fmt.Sprintf("PDES 1 worker %.3f s, 2 workers %.3f s; sequential == PDES: %v (reported, not gated)",
			t.pdes.wall1, t.pdes.wall2, t.pdes.seqEqual))
	}
	lp := w.layers
	lp.timers = t.base[0].counts.timersPending
	var driverProblems []string
	t.drivers, driverProblems = runDrivers(w.name, lp, spans, root)
	r.problems = append(r.problems, driverProblems...)
	r.metrics = perLayerOf(t)
	var sum float64
	for _, l := range hostShareLayers {
		sum += t.shares[l]
	}
	r.notes = append(r.notes, fmt.Sprintf("host_share sums to %.3f over %d CPU samples", sum, prof.total))
	return r, nil
}

// pdesRuns repeats the workload once under PDES with 1 and with 2 workers.
func pdesRuns(w workload, seed int64, seqDigest string, spans *spanLog, parent int) (pdesResult, error) {
	// Both runs get two Ps, so the ratio compares worker counts only.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	one, err := w.run(seed, repOpts{pdes: 1, spans: spans, parent: parent})
	if err != nil {
		return pdesResult{}, fmt.Errorf("%s (PDES 1 worker): %w", w.name, err)
	}
	two, err := w.run(seed, repOpts{pdes: 2, spans: spans, parent: parent})
	if err != nil {
		return pdesResult{}, fmt.Errorf("%s (PDES 2 workers): %w", w.name, err)
	}
	return pdesResult{
		ran:   true,
		wall1: one.host.wall.Seconds(), wall2: two.host.wall.Seconds(),
		barriers: two.counts.pdesBarriers, window: two.simWindow,
		equal: one.digest == two.digest, seqEqual: one.digest == seqDigest,
	}, nil
}

// print renders a result as a table of name, value, unit and clock.
func (r *result) print(w workload, seed int64) {
	pass, defs := "timed", endToEnd
	if r.traced {
		pass, defs = "traced", perLayer
	}
	fmt.Printf("== %s  %s pass  seed %d  %d repetitions\n", r.workload, pass, seed, r.reps)
	fmt.Printf("   %s\n", w.load)
	fmt.Printf("   %d operations attempted, %d failed unexpectedly, %d latency samples\n", r.attempted, r.failed, r.samples)
	for _, d := range defs {
		line := fmt.Sprintf("   %-36s %16.6g %-10s %-6s %s", d.name, r.metrics[d.name], d.unit, d.clock(), d.better)
		if !r.traced {
			line += fmt.Sprintf("  bound %.1f%%", d.bound*100)
		}
		fmt.Println(line)
	}
	for _, n := range r.notes {
		fmt.Printf("   note: %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Printf("   INCORRECT: %s\n", p)
	}
}

// jsonLine is the machine-readable last line for one workload.
func (r *result) jsonLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.name] = value{r.metrics[d.name], d.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(out)
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name    = flag.String("workload", "all", "workload to run: web_small, web_bulk, conn_scale, cluster_faults or all")
		seed    = flag.Int64("seed", 1, "seed for the generators, the stacks' RNG and the fault injector")
		seconds = flag.Float64("seconds", runSeconds, "host seconds to measure per workload and pass")
		trace   = flag.Int("trace", 0, "0: timed pass (end-to-end metrics); 1: traced pass (per-layer metrics)")
		traced  = flag.Bool("traced", false, "run the timed pass and then the traced pass")
		repeat  = flag.Int("repeat", 1, "run the whole timed set this many times and report the spread")
		outDir  = flag.String("out", filepath.Join("benchmark", "out"), "directory for trace.json")
		print   = flag.Bool("manifest", false, "print BENCHMARK.json as these tables define it and exit")
	)
	flag.Parse()
	if *print {
		os.Stdout.Write(manifest())
		return 0
	}
	// One P: the simulator is one goroutine, and with a second P the
	// garbage collector's cost lands on the other CPU, where it shows in the
	// wall clock only when that CPU is busy with something else. On one P it
	// is always part of the measured time (conn_scale under a CPU hog on the
	// other core: +31 % with two Ps, +8 % with one).
	runtime.GOMAXPROCS(1)
	if *seed == 0 {
		*seed = 1 // the beds treat 0 as "default seed 1"; say so instead of diverging
	}
	var selected []workload
	for _, w := range workloads(false) {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || flag.NArg() != 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q or bad arguments\n", *name)
		flag.Usage()
		return 2
	}

	var spans *spanLog
	if *trace == 1 || *traced {
		spans = newSpanLog()
	}
	ok := true
	var last *result
	sets := make([]map[string]*result, *repeat)
	for k := range sets {
		sets[k] = map[string]*result{}
		order := append([]workload(nil), selected...)
		if k%2 == 1 { // alternate the order so drift does not favour one workload
			slices.Reverse(order)
		}
		for _, w := range order {
			if *trace == 0 {
				r, err := timedPass(w, *seed, *seconds, minRepetitions)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				r.print(w, *seed)
				sets[k][w.name], last = r, r
				ok = ok && len(r.problems) == 0
			}
			if *trace == 1 || *traced {
				r, err := tracedPassOf(w, *seed, *seconds, minRepetitions, spans)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				r.print(w, *seed)
				last = r
				ok = ok && len(r.problems) == 0
			}
		}
	}
	if spans != nil {
		path := filepath.Join(*outDir, "trace.json")
		if err := spans.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Printf("harness spans written to %s\n", path)
	}
	if *repeat > 1 && *trace == 0 {
		ok = reportSpread(selected, sets) && ok
	}
	if len(selected) == 1 {
		fmt.Println(last.jsonLine())
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "benchmark: FAILED (see INCORRECT / DISAGREE lines above)")
		return 1
	}
	return 0
}

// reportSpread prints, per workload and end-to-end metric, each set's
// value with the median and quartiles, and checks that no two sets
// disagree by more than the metric's bound (simulated results, same seed:
// not at all).
func reportSpread(selected []workload, sets []map[string]*result) bool {
	ok := true
	fmt.Printf("== spread over %d sets\n", len(sets))
	for _, w := range selected {
		for _, d := range endToEnd {
			var v []float64
			for _, set := range sets {
				v = append(v, set[w.name].metrics[d.name])
			}
			lo, hi := v[0], v[0]
			for _, x := range v {
				lo, hi = min(lo, x), max(hi, x)
			}
			q1, q3 := quartiles(v)
			limit := d.bound
			if d.clock() == "model" {
				limit = 0
			}
			verdict := "agree"
			if div(hi-lo, lo) > limit {
				verdict = "DISAGREE"
				ok = false
			}
			fmt.Printf("   %-14s %-20s median %-12.6g q1 %-12.6g q3 %-12.6g range %.2f%% (limit %.1f%%) %s  %v\n",
				w.name, d.name, median(v), q1, q3, div(hi-lo, lo)*100, limit*100, verdict, v)
		}
	}
	return ok
}
