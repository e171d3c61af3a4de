// Package cliutil carries the flag, profile and report plumbing shared by
// the repository's command-line tools (neat-bench, neat-faults,
// neat-demo), so each main() holds only its own campaign logic. The
// helpers preserve the tools' historical output byte for byte — the
// determinism oracles hash it.
package cliutil

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"neat/internal/experiments"
)

// ExperimentFlags is the standard flag bundle of an experiment-running
// command: seed, quick mode, sweep concurrency, in-simulation parallelism
// and profiling outputs.
type ExperimentFlags struct {
	Quick    *bool
	Seed     *int64
	Parallel *bool
	Workers  *int
	PDES     *int
	Scale    *int

	CPUProfile *string
	MemProfile *string
}

// Experiment registers the shared experiment flags on the default
// FlagSet with the command's default seed. Call flag.Parse() afterwards,
// then Options() and StartProfiles().
func Experiment(defaultSeed int64) *ExperimentFlags {
	return &ExperimentFlags{
		Quick:      flag.Bool("quick", false, "shorter warmup/measurement windows and fewer runs"),
		Seed:       flag.Int64("seed", defaultSeed, "simulation seed"),
		Parallel:   flag.Bool("parallel", true, "measure independent sweep points concurrently (output is identical either way)"),
		Workers:    flag.Int("workers", 0, "worker count for -parallel (default GOMAXPROCS)"),
		PDES:       flag.Int("pdes", 0, "run each simulation in parallel: conservative PDES with N domain workers (0 = sequential event loop)"),
		Scale:      flag.Int("scale", 1, "multiply the cluster campaign's connection ladder (1 fits a 1-CPU container; 8000 targets >1M aggregate connections)"),
		CPUProfile: flag.String("cpuprofile", "", "write a CPU profile to this file"),
		MemProfile: flag.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

// Options converts the parsed flags into experiment options.
func (f *ExperimentFlags) Options() experiments.Options {
	return experiments.Options{
		Quick: *f.Quick, Seed: *f.Seed,
		Parallel: *f.Parallel, Workers: *f.Workers,
		PDESWorkers: *f.PDES, Scale: *f.Scale,
	}
}

// StartProfiles starts the profiles requested by -cpuprofile/-memprofile
// and returns the function to defer in main(): it stops the CPU profile
// and writes the heap profile. With neither flag set it does nothing.
func (f *ExperimentFlags) StartProfiles() func() {
	if *f.CPUProfile != "" {
		cf, err := os.Create(*f.CPUProfile)
		if err != nil {
			Fail("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(cf); err != nil {
			Fail("cpuprofile: %v", err)
		}
	}
	return func() {
		if *f.CPUProfile != "" {
			pprof.StopCPUProfile()
		}
		if *f.MemProfile != "" {
			mf, err := os.Create(*f.MemProfile)
			if err != nil {
				Fail("memprofile: %v", err)
			}
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(mf, 0); err != nil {
				Fail("memprofile: %v", err)
			}
			mf.Close()
		}
	}
}

// Emit prints one experiment report to stdout.
func Emit(res *experiments.Result) { fmt.Print(res.String()) }

// EmitAll prints a sequence of reports, each followed by a blank line
// (the neat-bench full-run format).
func EmitAll(results []*experiments.Result) {
	for _, res := range results {
		fmt.Print(res.String())
		fmt.Println()
	}
}

// Fail reports a usage or runtime error and exits with status 2.
func Fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
