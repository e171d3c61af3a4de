package sim

import "fmt"

// Machine models one physical host: a set of cores, each with one or more
// hardware threads, running at a nominal frequency. The two machines of the
// paper's testbed are constructed by the experiments package as
//
//	AMD:  12 cores × 1 thread  @ 1.9 GHz
//	Xeon:  8 cores × 2 threads @ 2.26 GHz
type Machine struct {
	sim    *Simulator
	Name   string
	FreqHz int64
	cores  []*Core

	// HTPenalty is the slowdown factor applied to a handler's execution
	// time when the sibling hardware thread of the same core is busy.
	// 1.0 means perfect sharing (no penalty); the default 1.45 reflects
	// the paper's observation that two hyperthreads deliver roughly
	// 1.3-1.4× the throughput of one core, not 2×.
	HTPenalty float64
}

// NewMachine creates a machine with cores×threadsPerCore hardware threads.
// On a PDES control plane (EnablePDES) the machine is placed in a fresh
// scheduler domain: everything derived from the machine — its processes,
// their contexts, the NIC bound to it — schedules on the domain shard that
// Machine.Sim() returns, not on s.
func NewMachine(s *Simulator, name string, cores, threadsPerCore int, freqHz int64) *Machine {
	if cores <= 0 || threadsPerCore <= 0 {
		panic("sim: machine needs at least one core and one thread per core")
	}
	if s.parent != nil {
		panic("sim: machines must be created on the control-plane simulator")
	}
	ms := s
	if s.pdes != nil {
		ms = s.newDomain()
	}
	m := &Machine{sim: ms, Name: name, FreqHz: freqHz, HTPenalty: 1.45}
	for c := 0; c < cores; c++ {
		core := &Core{machine: m, Index: c}
		for t := 0; t < threadsPerCore; t++ {
			core.threads = append(core.threads, &HWThread{core: core, Index: t})
		}
		m.cores = append(m.cores, core)
	}
	s.machines = append(s.machines, m)
	if ms != s {
		ms.machines = append(ms.machines, m)
	}
	return m
}

// Sim returns the simulator the machine schedules on: the owning simulator
// in the default mode, the machine's domain shard in PDES mode. Components
// that need machine-local time, randomness or scheduling must go through
// this (or a Proc/Context), never through a captured control-plane handle.
func (m *Machine) Sim() *Simulator { return m.sim }

// NumCores returns the number of physical cores.
func (m *Machine) NumCores() int { return len(m.cores) }

// Core returns core i.
func (m *Machine) Core(i int) *Core { return m.cores[i] }

// Thread returns hardware thread t of core c.
func (m *Machine) Thread(c, t int) *HWThread { return m.cores[c].threads[t] }

// Cycles converts a cycle count to simulated time at the nominal frequency.
func (m *Machine) Cycles(n int64) Time {
	return Time(n * int64(Second) / m.FreqHz)
}

// Threads returns every hardware thread in core-major order.
func (m *Machine) Threads() []*HWThread {
	var out []*HWThread
	for _, c := range m.cores {
		out = append(out, c.threads...)
	}
	return out
}

// Core is one physical core holding one or more hardware threads.
type Core struct {
	machine *Machine
	Index   int
	threads []*HWThread
}

// NumThreads returns the number of hardware threads on the core.
func (c *Core) NumThreads() int { return len(c.threads) }

// Thread returns hardware thread i.
func (c *Core) Thread(i int) *HWThread { return c.threads[i] }

// HWThread is a hardware thread (hyperthread). Processes are pinned to a
// thread; the thread executes at most one message handler at a time, and
// colocated processes time-share it. This is the paper's "each OS component
// gets its own core (or hardware thread)" model.
type HWThread struct {
	core  *Core
	Index int

	// freeAt is the earliest time a new handler can start on this thread.
	freeAt Time
	// busyTotal accumulates execution time for utilization accounting.
	busyTotal Time

	procs []*Proc
}

// Machine returns the owning machine.
func (t *HWThread) Machine() *Machine { return t.core.machine }

// String names the thread as machine/cN.tM.
func (t *HWThread) String() string {
	return fmt.Sprintf("%s/c%d.t%d", t.core.machine.Name, t.core.Index, t.Index)
}

// BusyTotal returns the cumulative busy time of the thread.
func (t *HWThread) BusyTotal() Time { return t.busyTotal }

// Procs returns the processes pinned to this thread.
func (t *HWThread) Procs() []*Proc { return t.procs }

// siblingBusy reports whether any other thread of the same core is busy at
// time at. It drives the hyperthreading penalty.
func (t *HWThread) siblingBusy(at Time) bool {
	for _, sib := range t.core.threads {
		if sib != t && sib.freeAt > at {
			return true
		}
	}
	return false
}

// Utilization returns the fraction of the window [since, until] that the
// thread spent executing, given busy totals captured at the window edges.
func Utilization(busyAtStart, busyAtEnd, since, until Time) float64 {
	if until <= since {
		return 0
	}
	u := float64(busyAtEnd-busyAtStart) / float64(until-since)
	if u > 1 {
		u = 1
	}
	return u
}
