package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when NEAT_BENCH_ARGS is set, so a test
// can exec its own binary as neat-bench and check the exit status.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("NEAT_BENCH_ARGS"); ok {
		os.Args = append([]string{"neat-bench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownComponentExits2: -replay and -timeline refuse a -comp that
// names no injectable component, with exit status 2 and the six valid
// names, instead of injecting into the IP process.
func TestUnknownComponentExits2(t *testing.T) {
	for _, mode := range []string{"-replay", "-timeline"} {
		t.Run(mode, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^$")
			cmd.Env = append(os.Environ(), "NEAT_BENCH_ARGS="+mode+" 3 -comp bogus")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("exit = %v, want status 2; stdout:\n%s", err, stdout.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("printed a report for an unknown component:\n%s", stdout.String())
			}
			msg := stderr.String()
			for _, want := range []string{`"bogus"`, "pf, ip, udp, tcp, driver, syscall"} {
				if !strings.Contains(msg, want) {
					t.Fatalf("stderr %q lacks %q", msg, want)
				}
			}
		})
	}
}
