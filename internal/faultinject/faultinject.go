// Package faultinject reproduces the fault-injection methodology of §6.6:
// faults are injected into randomly selected parts of the network stack
// code, with each component's selection probability proportional to its
// code size (the paper assumes uniform failure probability throughout the
// code). The injected fault crashes the owning process; the observation
// phase then classifies the run:
//
//   - fully transparent recovery — the fault hit a stateless component
//     (packet filter, IP, UDP); the replacement process is respawned and
//     no application or user observes anything worse than a packet delay;
//   - TCP connections lost — the fault hit the TCP component; that
//     replica's connections are gone (and only that replica's).
package faultinject

import (
	"errors"
	"math/rand"

	"neat/internal/core"
	"neat/internal/sim"
	"neat/internal/stack"
)

// ErrInjected is the crash cause used for injected faults.
var ErrInjected = errors.New("faultinject: injected fault")

// Component is one fault-injection target with its code-size weight.
// The weights are the paper-calibrated estimate of each stack component's
// share of the code (Table 3 derives 46.2 % of failing runs from TCP):
// TCP dominates with roughly 12 kLoC against ~14 kLoC for the stateless
// components combined.
type Component struct {
	Name   string
	Weight float64 // proportional to estimated code size
}

// DefaultComponents is the per-component code-size model of §6.6: the
// paper injects faults into the stack replicas only.
var DefaultComponents = []Component{
	{Name: "pf", Weight: 155},
	{Name: "ip", Weight: 230},
	{Name: "udp", Weight: 153},
	{Name: "tcp", Weight: 462},
}

// MatrixComponents extends the fault surface to the whole plane for the
// fault-matrix campaign: the singleton NIC driver and SYSCALL server are
// injectable too. Their weights follow the same code-size rationale
// (a 10G driver is a substantial body of code; the SYSCALL server is
// thin). DefaultComponents is deliberately left unchanged so Table 3
// reproduces the paper.
var MatrixComponents = []Component{
	{Name: "pf", Weight: 155},
	{Name: "ip", Weight: 230},
	{Name: "udp", Weight: 153},
	{Name: "tcp", Weight: 462},
	{Name: "driver", Weight: 180},
	{Name: "syscall", Weight: 90},
}

// Kind is the class of injected fault.
type Kind int

// Fault kinds of the extended model. The paper's methodology (§6.6) only
// crashes processes; hangs exercise the imperfect failure detector
// (a hung process is invisible to the crash oracle), and storms exercise
// the escalation ladder.
const (
	// KindCrash kills the target instantly (the paper's fault model).
	KindCrash Kind = iota
	// KindHang livelocks the target: it stays alive but stops draining
	// its inbox. Only a heartbeat watchdog can detect this.
	KindHang
	// KindStorm crashes the target repeatedly in quick succession
	// (callers drive the repeat cadence via ReInject).
	KindStorm
)

// KindFromString parses a fault-kind name ("crash", "hang", "storm").
func KindFromString(s string) (Kind, error) {
	switch s {
	case "crash":
		return KindCrash, nil
	case "hang":
		return KindHang, nil
	case "storm":
		return KindStorm, nil
	}
	return 0, errors.New("faultinject: unknown fault kind " + s)
}

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindHang:
		return "hang"
	case KindStorm:
		return "storm"
	default:
		return "unknown"
	}
}

// Outcome classifies one failing run.
type Outcome int

// Outcomes of a fault-injection run (Table 3 rows).
const (
	// OutcomeTransparent: recovery was fully transparent.
	OutcomeTransparent Outcome = iota
	// OutcomeTCPLost: TCP connections of one replica were lost.
	OutcomeTCPLost
)

// String names the outcome.
func (o Outcome) String() string {
	if o == OutcomeTransparent {
		return "fully transparent recovery"
	}
	return "TCP connections lost"
}

// Injector selects components by code-size weight and crashes the
// corresponding process of a randomly chosen replica.
type Injector struct {
	rng        *rand.Rand
	components []Component
	total      float64
	// injected counts initial injections by kind (storm repeats applied
	// via ReInject re-trigger an already-counted fault and are not
	// re-counted — the mix records decisions, not crash events).
	injected [3]uint64
}

// New creates an injector drawing from rng (pass the simulation's).
func New(rng *rand.Rand, components []Component) *Injector {
	if len(components) == 0 {
		components = DefaultComponents
	}
	inj := &Injector{rng: rng, components: components}
	for _, c := range components {
		inj.total += c.Weight
	}
	return inj
}

// pick selects a component name with probability proportional to weight.
func (inj *Injector) pick() string {
	x := inj.rng.Float64() * inj.total
	for _, c := range inj.components {
		x -= c.Weight
		if x < 0 {
			return c.Name
		}
	}
	return inj.components[len(inj.components)-1].Name
}

// has reports whether comp names a component of the injector's table.
func (inj *Injector) has(comp string) bool {
	for _, c := range inj.components {
		if c.Name == comp {
			return true
		}
	}
	return false
}

// TCPShare returns the probability a fault lands in the TCP component —
// the expected "TCP connections lost" fraction of Table 3 and the state
// survival model of Figure 13.
func (inj *Injector) TCPShare() float64 {
	for _, c := range inj.components {
		if c.Name == "tcp" {
			return c.Weight / inj.total
		}
	}
	return 0
}

// Injection records what one injection did.
type Injection struct {
	Component string
	Replica   *stack.Replica
	Proc      *sim.Proc
}

// Inject crashes the component's process in a random live replica of sys.
// On a drained system (no live replicas — all slots empty or quarantined)
// it reports ok=false without injecting anything.
func (inj *Injector) Inject(sys *core.System) (Injection, bool) {
	replicas := sys.Replicas()
	if len(replicas) == 0 {
		return Injection{}, false
	}
	r := replicas[inj.rng.Intn(len(replicas))]
	comp := inj.pick()
	proc := target(sys, r, comp)
	injection := Injection{Component: comp, Replica: r, Proc: proc}
	inj.injected[KindCrash]++
	proc.Crash(ErrInjected)
	return injection, true
}

// Injected returns how many faults of kind k this injector has injected
// (Inject counts as KindCrash; ReInject repeats are not re-counted).
func (inj *Injector) Injected(k Kind) uint64 {
	if k < 0 || int(k) >= len(inj.injected) {
		return 0
	}
	return inj.injected[k]
}

// target resolves the process currently implementing comp: the singleton
// "driver"/"syscall" system processes, or comp's process within replica r.
// Re-resolving through target after a recovery finds the replacement
// incarnation (replica restarts create new processes; the singletons keep
// their endpoint).
func target(sys *core.System, r *stack.Replica, comp string) *sim.Proc {
	switch comp {
	case "driver":
		return sys.Driver().Proc()
	case "syscall":
		return sys.SyscallProc()
	}
	switch {
	case r == nil:
		return nil
	case r.Kind() == stack.Single:
		// Everything lives in one process; any component fault kills it.
		return r.Procs()[0]
	case comp == "tcp":
		return r.SockProc()
	default:
		// pf, ip and udp share the IP process in the two-process layout.
		return r.EntryProc()
	}
}

// InjectKind injects a fault of the given kind into the named component.
// A name missing from the injector's component table reports ok=false.
// Replica components target a random live replica (ok=false on a drained
// system, as Inject); "driver" and "syscall" target the singleton system
// processes regardless of replica state. KindStorm applies its first
// crash; callers repeat via ReInject at their chosen cadence.
func (inj *Injector) InjectKind(sys *core.System, kind Kind, comp string) (Injection, bool) {
	if !inj.has(comp) {
		return Injection{}, false
	}
	var r *stack.Replica
	if comp != "driver" && comp != "syscall" {
		replicas := sys.Replicas()
		if len(replicas) == 0 {
			return Injection{}, false
		}
		r = replicas[inj.rng.Intn(len(replicas))]
	}
	proc := target(sys, r, comp)
	if proc == nil {
		return Injection{}, false
	}
	injection := Injection{Component: comp, Replica: r, Proc: proc}
	inj.injected[kind]++
	if kind == KindHang {
		proc.Hang()
	} else {
		proc.Crash(ErrInjected)
	}
	return injection, true
}

// ReInject repeats a fault against the current incarnation of a previous
// injection's component (for crash storms: each respawn is killed again).
// Reports false once the target is gone (slot quarantined).
func ReInject(sys *core.System, prev Injection) bool {
	proc := target(sys, prev.Replica, prev.Component)
	if proc == nil || proc.Dead() {
		return false
	}
	proc.Crash(ErrInjected)
	return true
}
