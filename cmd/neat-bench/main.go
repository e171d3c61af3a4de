// Command neat-bench runs the evaluation campaigns: every table and figure
// of the paper's §6, printed with the paper's reported numbers alongside,
// and the extensions measured beside them. Expect a few minutes of
// wall-clock time for the full run; -quick trades precision for speed.
//
// Usage:
//
//	neat-bench [-quick] [-seed N]                   the paper's campaigns, in paper order
//	neat-bench -only NAME [-quick] [-scale N]       one campaign: table1, fig4, fig5, fig7,
//	                                                fig9, fig11, fig12, table2, table3, fig13,
//	                                                breakdown, steering, attack, cluster,
//	                                                connscale, ipc or matrix
//	neat-bench -replay SEED [-kind K] [-comp C]     one fault-matrix run, verbosely
//	neat-bench -timeline SEED [-kind K] [-comp C]   one fault-matrix run's lifecycle timeline
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"

	"neat/internal/experiments"
	"neat/internal/faultinject"
)

func main() {
	quick := flag.Bool("quick", false, "shorter warmup/measurement windows and fewer runs")
	seed := flag.Int64("seed", 1, "simulation seed")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "measure up to N independent sweep points concurrently; 1 runs them one after another (output is identical either way)")
	scale := flag.Int("scale", 1, "multiply the cluster campaign's connection ladder (1 fits a 1-CPU container; 8000 targets >1M aggregate connections)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	only := flag.String("only", "", "run one campaign by name (default: every paper campaign)")
	replay := flag.Int64("replay", 0, "re-run one fault-matrix run with this seed, verbosely")
	timeline := flag.Int64("timeline", 0, "re-run one fault-matrix run with this seed and print the lifecycle-event timeline")
	kindName := flag.String("kind", "crash", "fault kind for -replay/-timeline: crash, hang or storm")
	comp := flag.String("comp", "tcp", "component for -replay/-timeline: pf, ip, udp, tcp, driver or syscall")
	flag.Parse()
	defer startProfiles(*cpuProfile, *memProfile)()

	o := experiments.Options{Quick: *quick, Seed: *seed, Workers: *workers, Scale: *scale}
	switch {
	case *replay != 0 || *timeline != 0:
		kind, err := faultinject.KindFromString(*kindName)
		if err != nil {
			fail("%v", err)
		}
		var comps []string
		for _, c := range faultinject.MatrixComponents {
			comps = append(comps, c.Name)
		}
		if !slices.Contains(comps, *comp) {
			fail("unknown component %q; want one of %s", *comp, strings.Join(comps, ", "))
		}
		if *timeline != 0 {
			fmt.Print(experiments.FaultTimeline(o, *timeline, kind, *comp))
			return
		}
		fmt.Print(experiments.FaultReplay(o, *replay, kind, *comp))
	case *only != "":
		name := strings.ToLower(*only)
		for _, c := range experiments.Campaigns {
			if c.Name == name {
				fmt.Print(c.Run(o))
				return
			}
		}
		fail("unknown experiment %q", *only)
	default:
		for _, c := range experiments.Campaigns {
			if c.Paper {
				fmt.Println(c.Run(o))
			}
		}
	}
}

// startProfiles starts the profiles -cpuprofile/-memprofile ask for and
// returns the function to defer in main(): it stops the CPU profile and
// writes the heap profile. With neither flag set it does nothing.
func startProfiles(cpu, mem string) func() {
	if cpu != "" {
		cf, err := os.Create(cpu)
		if err != nil {
			fail("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			fail("cpuprofile: %v", err)
		}
	}
	return func() {
		if cpu != "" {
			pprof.StopCPUProfile()
		}
		if mem != "" {
			mf, err := os.Create(mem)
			if err != nil {
				fail("memprofile: %v", err)
			}
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(mf, 0); err != nil {
				fail("memprofile: %v", err)
			}
			mf.Close()
		}
	}
}

// fail reports a usage or runtime error and exits with status 2.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
