// Command neat-bench regenerates every table and figure of the paper's
// evaluation (§6) and prints them with the paper's reported numbers
// alongside. Expect a few minutes of wall-clock time for the full run;
// -quick trades precision for speed.
//
// Usage:
//
//	neat-bench [-quick] [-seed N] [-only table1|fig4|fig5|fig7|fig9|fig11|fig12|table2|table3|fig13]
//	neat-bench -breakdown          # traced run: per-hop latency breakdown tables
//	neat-bench -steering           # placement policy × workload skew comparison
//	neat-bench -attack             # hostile clients vs guarded replicas
//	neat-bench -cluster [-scale N] # datacenter campaign: L4-balanced farms behind a switch
//	neat-bench -connscale          # connection-scale ladder: ~1M conns on one replica engine
//	neat-bench -ipc                # IPC fast path: message rings, per-message vs coalesced wakes
package main

import (
	"flag"
	"strings"

	"neat/internal/cliutil"
	"neat/internal/experiments"
)

func main() {
	ef := cliutil.Experiment(1)
	only := flag.String("only", "", "run a single experiment (table1, fig4, fig5, fig7, fig9, fig11, fig12, table2, table3, fig13)")
	breakdown := flag.Bool("breakdown", false, "run the traced per-hop latency breakdown instead of the paper tables")
	steering := flag.Bool("steering", false, "run the placement-policy steering campaign instead of the paper tables")
	attack := flag.Bool("attack", false, "run the goodput-under-attack campaign instead of the paper tables")
	cluster := flag.Bool("cluster", false, "run the cluster campaign: multi-machine farms behind a switch/L4 tier (combine with -scale and -pdes)")
	connscale := flag.Bool("connscale", false, "run the connection-scale ladder: up to ~1M established conns on one replica's engine, each holding an armed timer")
	ipcfp := flag.Bool("ipc", false, "run the IPC fast-path campaign: message-ring activity under per-message vs coalesced wakes across pipeline shapes (combine with -pdes)")
	flag.Parse()
	defer ef.StartProfiles()()

	o := ef.Options()
	drivers := map[string]func(experiments.Options) *experiments.Result{
		"table1": experiments.Table1,
		"fig4":   experiments.Figure4,
		"fig5":   experiments.Figure5,
		"fig7":   experiments.Figure7,
		"fig9":   experiments.Figure9,
		"fig11":  experiments.Figure11,
		"fig12":  experiments.Figure12,
		"table2": experiments.Table2,
		"table3": experiments.Table3,
		"fig13":  experiments.Figure13,
		// Not part of the default run: tracing is opt-in, and the paper
		// tables above are measured untraced.
		"breakdown": experiments.LatencyBreakdown,
		// Not part of the default run: the steering campaign measures the
		// placement-plane extension, not a figure of the paper.
		"steering": experiments.SteeringSkew,
		// Not part of the default run: the adversarial campaign measures
		// the resource-guard extension under hostile clients.
		"attack": experiments.GoodputUnderAttack,
		// Not part of the default run: the cluster campaign measures the
		// multi-machine topology, not a figure of the paper.
		"cluster": experiments.ClusterScale,
		// Not part of the default run: the connection-scale ladder measures
		// the million-connection engine refactor (timer wheel + pooled PCBs).
		"connscale": experiments.ConnScale,
		// Not part of the default run: the IPC campaign measures the modeled
		// message rings and wake coalescing, not a figure of the paper.
		"ipc": experiments.IPCFastPath,
		// Not part of the default run: the PDES benches measure the
		// simulator itself, not the paper. Combine with -pdes N.
		"pdesfarm":  experiments.PDESFarm,
		"pdesscale": experiments.PDESScaling,
	}

	switch {
	case *breakdown:
		cliutil.Emit(experiments.LatencyBreakdown(o))
	case *steering:
		cliutil.Emit(experiments.SteeringSkew(o))
	case *attack:
		cliutil.Emit(experiments.GoodputUnderAttack(o))
	case *cluster:
		cliutil.Emit(experiments.ClusterScale(o))
	case *connscale:
		cliutil.Emit(experiments.ConnScale(o))
	case *ipcfp:
		cliutil.Emit(experiments.IPCFastPath(o))
	case *only != "":
		fn, ok := drivers[strings.ToLower(*only)]
		if !ok {
			cliutil.Fail("unknown experiment %q", *only)
		}
		cliutil.Emit(fn(o))
	default:
		cliutil.EmitAll(experiments.All(o))
	}
}
