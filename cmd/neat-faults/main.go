// Command neat-faults runs fault-injection campaigns standalone.
//
// The default mode reproduces §6.6: 100 failing runs (24 with -quick)
// against a multi-component NEaT stack under web load, classifying each
// recovery, and printing the Table 3 breakdown.
//
// -matrix runs the extended campaign instead: every fault kind (crash,
// hang, storm) against every component of the plane (pf, ip, udp, tcp,
// driver, syscall) under watchdog failure detection, reported as an
// extended Table 3.
//
// -attack runs the adversarial-workload campaign: every hostile-client
// archetype (slowloris, SYN flood, connection churn) aimed at one of four
// guarded replicas, under both placement policies, reporting clean-replica
// goodput retention.
//
// -replay re-executes a single matrix run verbosely for debugging: the
// same seed reproduces the run bit for bit, and the report dumps the
// watchdog and management-plane counters the campaign aggregates away.
//
// -timeline re-executes a single matrix run with the observability layer
// attached and prints the management plane's annotated lifecycle-event
// timeline (detections, escalations, RSS rebinds, recoveries) in
// simulated-time order.
//
// Usage:
//
//	neat-faults [-seed N] [-quick]                     Table 3 (§6.6)
//	neat-faults -matrix [-seed N] [-quick]             fault matrix
//	neat-faults -attack [-seed N] [-quick]             goodput under attack
//	neat-faults -replay SEED [-kind K] [-comp C]       verbose single run
//	neat-faults -timeline SEED [-kind K] [-comp C]     annotated event timeline
package main

import (
	"flag"
	"fmt"

	"neat/internal/cliutil"
	"neat/internal/experiments"
	"neat/internal/faultinject"
)

func main() {
	ef := cliutil.Experiment(1)
	matrix := flag.Bool("matrix", false, "run the extended kind × component fault matrix")
	attack := flag.Bool("attack", false, "run the goodput-under-attack campaign (hostile clients vs guarded replicas)")
	replay := flag.Int64("replay", 0, "re-run one matrix run with this seed, verbosely")
	timeline := flag.Int64("timeline", 0, "re-run one matrix run with this seed and print the lifecycle-event timeline")
	kindName := flag.String("kind", "crash", "fault kind for -replay/-timeline: crash, hang or storm")
	comp := flag.String("comp", "tcp", "component for -replay/-timeline: pf, ip, udp, tcp, driver or syscall")
	flag.Parse()

	o := ef.Options()
	switch {
	case *replay != 0 || *timeline != 0:
		kind, err := faultinject.KindFromString(*kindName)
		if err != nil {
			cliutil.Fail("%v", err)
		}
		if *timeline != 0 {
			cliutil.Emit(experiments.FaultTimeline(o, *timeline, kind, *comp))
			return
		}
		cliutil.Emit(experiments.FaultReplay(o, *replay, kind, *comp))
	case *attack:
		cliutil.Emit(experiments.GoodputUnderAttack(o))
		fmt.Printf("(campaign executed with quick=%v)\n", o.Quick)
	case *matrix:
		cliutil.Emit(experiments.FaultMatrix(o))
		fmt.Printf("(campaign executed with quick=%v)\n", o.Quick)
	default:
		cliutil.Emit(experiments.Table3(o))
		fmt.Printf("(campaign executed with quick=%v)\n", o.Quick)
	}
}
