// Command neat-benchreport produces the committed benchmark snapshot: it
// runs the micro-benchmarks (ns/op, B/op, allocs/op), times a full
// `neat-bench -quick` wall-clock run, measures the PDES worker-scaling
// ladder, and writes the result as JSON. The `make bench` target drives
// it; the output file is committed so PRs carry a before/after record.
//
// `neat-benchreport -delta` compares the two most recent committed
// snapshots (numeric suffix order: BENCH_pr9.json before BENCH_pr10.json)
// — or exactly the two files given as arguments — and prints the ns/op,
// allocs/op and wall-clock movement per benchmark.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"neat/internal/experiments"
)

type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Extra carries benchmark-specific ReportMetric values (e.g.
	// sim-events for the simulator throughput benchmark).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// scalingRow is one point of the PDES worker-scaling ladder: the same
// quick farm simulation (same seed) timed end to end. workers == 0 is the
// sequential global event loop; speedup is relative to workers == 1 and
// only exceeds 1.0 when the host has CPUs to spread the workers over.
type scalingRow struct {
	Workers     int     `json:"workers"`
	WallSeconds float64 `json:"wall_seconds"`
	Speedup     float64 `json:"speedup_vs_1_worker,omitempty"`
	TotalKRPS   float64 `json:"total_krps"`
}

// clusterRow is one rung of the cluster campaign's connection ladder:
// the default 3-farm topology at a per-generator connection count, with
// the aggregate concurrent-connection total across all generators.
type clusterRow struct {
	ConnsPerGen int     `json:"conns_per_gen"`
	Aggregate   int     `json:"aggregate_conns"`
	TotalKRPS   float64 `json:"total_krps"`
	Errors      uint64  `json:"errors"`
	MeanLatNs   int64   `json:"mean_latency_ns"`
	P99LatNs    int64   `json:"p99_latency_ns"`
}

// connScaleRow is one rung of the connection-scale ladder: a single replica
// engine holding N established connections, each with an armed idle timer.
// PendingEvents stays O(1) regardless of N: an armed timer is an entry of the
// hierarchical timer wheel (PendingTimers), never a calendar event. The 1M
// rung is covered by BenchmarkMillionConns in the benchmarks section; the
// ladder here stops at 100k to keep snapshot wall time sane.
type connScaleRow struct {
	Conns         int     `json:"conns"`
	Established   int     `json:"established"`
	PendingEvents int     `json:"pending_events"`
	PendingTimers int     `json:"pending_timers"`
	Cascades      uint64  `json:"cascades,omitempty"`
	BytesPerConn  float64 `json:"bytes_per_conn"`
	WallSeconds   float64 `json:"wall_seconds"`
	PDESIdentical bool    `json:"pdes_identical,omitempty"`
}

type report struct {
	Generated     string         `json:"generated"`
	GoVersion     string         `json:"go_version"`
	HostCPUs      int            `json:"host_cpus"`
	Benchmarks    []benchResult  `json:"benchmarks"`
	QuickWallSecs float64        `json:"neat_bench_quick_wall_seconds"`
	PDESScaling   []scalingRow   `json:"pdes_scaling,omitempty"`
	ClusterLadder []clusterRow   `json:"cluster_ladder,omitempty"`
	ConnScale     []connScaleRow `json:"conn_scale_ladder,omitempty"`
}

// benchSets lists (package, -bench pattern) pairs to run. The root package
// only contributes the engine-throughput benchmark; its figure-reproduction
// benchmarks are full experiments and far too slow for a snapshot.
var benchSets = [][2]string{
	{".", "^BenchmarkSimulatorThroughput$"},
	{"./internal/sim", "."},
	{"./internal/proto", "."},
	{"./internal/bufpool", "."},
	{"./internal/wire", "."},
	// The million-connection rung of the conn-scale campaign: one engine,
	// 1M established conns, 1M armed timers, O(levels) calendar events.
	{"./internal/experiments", "^BenchmarkMillionConns$"},
}

func main() {
	out := flag.String("out", "BENCH_pr10.json", "output JSON path")
	delta := flag.Bool("delta", false,
		"compare the two most recent BENCH_*.json snapshots (or the two files passed as arguments) instead of generating a new one")
	flag.Parse()

	if *delta {
		if err := runDelta(flag.Args()); err != nil {
			fatal(err)
		}
		return
	}

	rep := report{
		Generated: time.Now().UTC().Format(time.RFC3339),
		GoVersion: strings.TrimSpace(runOrDie("go", "version")),
		HostCPUs:  runtime.NumCPU(),
	}
	for _, set := range benchSets {
		txt := runOrDie("go", "test", "-run", "^$", "-bench", set[1], "-benchmem", set[0])
		rep.Benchmarks = append(rep.Benchmarks, parseBench(txt)...)
	}

	tmp, err := os.MkdirTemp("", "neatbench")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)
	bin := filepath.Join(tmp, "neat-bench")
	runOrDie("go", "build", "-o", bin, "./cmd/neat-bench")
	start := time.Now()
	runOrDie(bin, "-quick")
	rep.QuickWallSecs = time.Since(start).Seconds()

	points, err := experiments.PDESScalingLadder(
		experiments.Options{Quick: true, Seed: 1}, []int{0, 1, 2, 4})
	if err != nil {
		fatal(fmt.Errorf("pdes scaling ladder: %w", err))
	}
	var base float64
	for _, p := range points {
		if p.Workers == 1 {
			base = p.WallSeconds
		}
	}
	for _, p := range points {
		row := scalingRow{Workers: p.Workers, WallSeconds: p.WallSeconds, TotalKRPS: p.KRPS}
		if p.Workers >= 1 && base > 0 {
			row.Speedup = base / p.WallSeconds
		}
		rep.PDESScaling = append(rep.PDESScaling, row)
	}

	cpoints, err := experiments.ClusterLadder(
		experiments.Options{Quick: true, Seed: 1}, []int{2, 4, 8}, 1)
	if err != nil {
		fatal(fmt.Errorf("cluster ladder: %w", err))
	}
	for _, p := range cpoints {
		rep.ClusterLadder = append(rep.ClusterLadder, clusterRow{
			ConnsPerGen: p.ConnsPerGen,
			Aggregate:   p.Aggregate,
			TotalKRPS:   p.KRPS,
			Errors:      p.Errors,
			MeanLatNs:   int64(p.MeanLat),
			P99LatNs:    int64(p.P99Lat),
		})
	}

	for _, p := range experiments.ConnScaleLadder(
		experiments.Options{Quick: true, Seed: 1}, []int{10_000, 100_000}) {
		rep.ConnScale = append(rep.ConnScale, connScaleRow{
			Conns:         p.Conns,
			Established:   p.Established,
			PendingEvents: p.PendingEvents,
			PendingTimers: p.PendingTimers,
			Cascades:      p.Cascades,
			BytesPerConn:  p.BytesPerConn,
			WallSeconds:   p.WallSeconds,
			PDESIdentical: p.PDESIdentical,
		})
	}

	j, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	j = append(j, '\n')
	if err := os.WriteFile(*out, j, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d benchmarks, quick wall %.2fs)\n",
		*out, len(rep.Benchmarks), rep.QuickWallSecs)
}

// parseBench extracts result lines of the form
//
//	BenchmarkName-8  	  10	105571356 ns/op	14790996 B/op	167213 allocs/op
//
// including any extra ReportMetric columns ("250184 sim-events").
func parseBench(out string) []benchResult {
	var res []benchResult
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		r := benchResult{Name: strings.TrimSuffix(fields[0], " ")}
		if i := strings.IndexByte(r.Name, '-'); i > 0 {
			r.Name = r.Name[:i] // strip the -GOMAXPROCS suffix
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = int64(v)
			case "allocs/op":
				r.AllocsPerOp = int64(v)
			default:
				if r.Extra == nil {
					r.Extra = map[string]float64{}
				}
				r.Extra[fields[i+1]] = v
			}
		}
		res = append(res, r)
	}
	return res
}

func runOrDie(name string, args ...string) string {
	cmd := exec.Command(name, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fatal(fmt.Errorf("%s %s: %w", name, strings.Join(args, " "), err))
	}
	return buf.String()
}

// runDelta diffs two snapshots: the pair passed as args, or the two most
// recent BENCH_*.json in the working directory (ordered by the numeric
// suffix in the file name, so pr10 follows pr9; non-numeric names sort
// lexically before numeric ones).
func runDelta(args []string) error {
	var oldPath, newPath string
	switch len(args) {
	case 2:
		oldPath, newPath = args[0], args[1]
	case 0:
		snaps, err := filepath.Glob("BENCH_*.json")
		if err != nil || len(snaps) < 2 {
			return fmt.Errorf("need at least two BENCH_*.json snapshots to diff (found %d)", len(snaps))
		}
		sort.Slice(snaps, func(i, j int) bool {
			ni, oki := snapshotSeq(snaps[i])
			nj, okj := snapshotSeq(snaps[j])
			if oki != okj {
				return !oki // non-numeric names first (oldest)
			}
			if oki && ni != nj {
				return ni < nj
			}
			return snaps[i] < snaps[j]
		})
		oldPath, newPath = snaps[len(snaps)-2], snaps[len(snaps)-1]
	default:
		return fmt.Errorf("-delta takes zero or exactly two snapshot paths, got %d", len(args))
	}

	var oldRep, newRep report
	for _, l := range []struct {
		path string
		into *report
	}{{oldPath, &oldRep}, {newPath, &newRep}} {
		raw, err := os.ReadFile(l.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, l.into); err != nil {
			return fmt.Errorf("%s: %w", l.path, err)
		}
	}

	fmt.Printf("delta %s -> %s\n\n", oldPath, newPath)
	fmt.Printf("%-34s %14s %14s %8s %12s %12s %8s\n",
		"benchmark", "ns/op old", "ns/op new", "Δ", "allocs old", "allocs new", "Δ")
	prev := map[string]benchResult{}
	for _, b := range oldRep.Benchmarks {
		prev[b.Name] = b
	}
	for _, b := range newRep.Benchmarks {
		o, ok := prev[b.Name]
		if !ok {
			fmt.Printf("%-34s %14s %14.0f %8s %12s %12d %8s\n",
				b.Name, "-", b.NsPerOp, "new", "-", b.AllocsPerOp, "new")
			continue
		}
		fmt.Printf("%-34s %14.0f %14.0f %8s %12d %12d %8s\n",
			b.Name, o.NsPerOp, b.NsPerOp, pct(o.NsPerOp, b.NsPerOp),
			o.AllocsPerOp, b.AllocsPerOp,
			pct(float64(o.AllocsPerOp), float64(b.AllocsPerOp)))
		delete(prev, b.Name)
	}
	for name := range prev {
		fmt.Printf("%-34s (dropped from %s)\n", name, newPath)
	}
	fmt.Printf("\nneat-bench -quick wall: %.2fs -> %.2fs %s\n",
		oldRep.QuickWallSecs, newRep.QuickWallSecs,
		pct(oldRep.QuickWallSecs, newRep.QuickWallSecs))
	return nil
}

// snapshotSeq extracts the trailing integer of a BENCH_<name><N>.json file
// name (ok=false when there is none).
func snapshotSeq(path string) (int, bool) {
	base := strings.TrimSuffix(filepath.Base(path), ".json")
	i := len(base)
	for i > 0 && base[i-1] >= '0' && base[i-1] <= '9' {
		i--
	}
	if i == len(base) {
		return 0, false
	}
	n, err := strconv.Atoi(base[i:])
	return n, err == nil
}

// pct renders the relative movement from old to new ("-12.3%"; "=" for no
// change, "?" when the old value is zero).
func pct(old, new float64) string {
	if old == new {
		return "="
	}
	if old == 0 {
		return "?"
	}
	return fmt.Sprintf("%+.1f%%", (new-old)/old*100)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "neat-benchreport:", err)
	os.Exit(1)
}
