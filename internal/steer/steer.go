// Package steer is NEaT's flow-placement plane: the single authority for
// deciding which replica slot owns a flow or connection.
//
// The paper's whole scalability argument rests on partitioning flows
// across replicas (§4): every packet of a flow must reach the replica
// that owns the flow's state, and new flows must spread across replicas.
// Before this package those decisions were smeared across four layers —
// the NIC's RSS indirection, the management plane's connect routing, the
// SYSCALL server and scale-down — which meant they could drift apart
// and none could be swapped or tuned. Now they all consult one Placer:
//
//   - the NIC asks QueueFor(hash) to steer an unpinned inbound flow;
//   - the SYSCALL server (via core.System.ConnectTarget) asks PickConnect
//     for each new outbound connection;
//   - scale-down (core.System.ScaleDown) asks PickRetire which
//     replica should drain.
//
// Established connections are never moved by a policy change: the NIC's
// exact-match flow-director filters pin them to their owning queue, so the
// Placer only governs *unpinned* flows — the first packets of new
// connections and any flow the NIC has no filter for.
//
// Three policies are provided:
//
//   - HashPolicy (default): modulo-hash over the active set, plus a
//     uniformly random connect-side choice. Byte-identical to the
//     behaviour the repository had before this package existed.
//   - RingPolicy: a consistent-hash ring with virtual nodes. Adding or
//     removing one replica remaps only O(1/N) of the unpinned flow space
//     instead of rehashing almost everything, which keeps pre-filter
//     packets (SYN retransmits, flows the filter table evicted) landing
//     on the right queue across scale events.
//   - LeastLoadedPolicy: power-of-two-choices over live per-replica
//     connection counts (the same figure the metrics registry exports as
//     core.replicaN.connections). Skew-resistant: elephant-heavy slots
//     stop attracting new flows.
//
// All randomness is drawn from the *rand.Rand handed to New — the
// simulator's seeded RNG — so placement is reproducible run-to-run and
// participates in the byte-identity determinism oracles.
package steer

import (
	"fmt"
	"math/rand"
)

// PolicyKind enumerates the built-in placement policies.
type PolicyKind int

// The built-in policies.
const (
	// PolicyHash is modulo-hash placement over the active set — the
	// paper's behaviour and the default.
	PolicyHash PolicyKind = iota
	// PolicyRing is consistent-hash-ring placement with bounded remap.
	PolicyRing
	// PolicyLeastLoaded is power-of-two-choices over live per-replica
	// connection counts.
	PolicyLeastLoaded
)

// String names the policy kind as accepted by ParsePolicy.
func (k PolicyKind) String() string {
	switch k {
	case PolicyHash:
		return "hash"
	case PolicyRing:
		return "ring"
	case PolicyLeastLoaded:
		return "least-loaded"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
}

// ParsePolicy maps a policy name ("hash", "ring", "least-loaded"; ""
// defaults to hash) to its kind.
func ParsePolicy(name string) (PolicyKind, error) {
	switch name {
	case "", "hash":
		return PolicyHash, nil
	case "ring":
		return PolicyRing, nil
	case "least-loaded", "leastloaded", "p2c":
		return PolicyLeastLoaded, nil
	default:
		return 0, fmt.Errorf("steer: unknown policy %q (want hash, ring or least-loaded)", name)
	}
}

// DefaultRingVNodes is the virtual-node count per slot for PolicyRing.
// 64 vnodes keep the expected remap fraction on a single slot add/remove
// within a few percent of the ideal 1/N.
const DefaultRingVNodes = 64

// Config selects the placement policy for one system. The zero value is the
// paper's behaviour: hash placement. A retiring replica drains lazily under
// every policy: it serves its established connections until they finish.
type Config struct {
	// Policy picks the placement policy (default PolicyHash; PolicyRing
	// uses DefaultRingVNodes virtual nodes per slot).
	Policy PolicyKind
}

// LoadFunc reports the live connection count of a replica slot; the
// management plane supplies it (same source as the registry gauge
// core.replicaN.connections). It must tolerate any slot index.
type LoadFunc func(slot int) int

// Placer is the placement authority. Implementations are not safe for
// concurrent use; in this repository every consumer lives on the same
// simulator goroutine.
//
// Slot indices double as NIC queue indices throughout (slot i is bound to
// RX/TX queue pair i), so QueueFor's return value is used directly as the
// hardware queue.
type Placer interface {
	// Name returns the policy name (ParsePolicy-compatible).
	Name() string
	// SetActive installs the set of slots eligible for NEW flows, in
	// ascending slot order. Terminating (draining), recovering and
	// quarantined slots are excluded by the caller; their established
	// connections keep flowing via their exact-match filters.
	SetActive(slots []int)
	// Active returns the current eligible set (ascending). Callers must
	// not modify the returned slice.
	Active() []int
	// QueueFor maps an unpinned inbound flow hash to the slot/queue that
	// should own it, or -1 when no slot is eligible (the NIC's drop-all
	// state).
	QueueFor(hash uint32) int
	// PickConnect returns the slot that should own a new outbound
	// connection, or -1 when no slot is eligible.
	PickConnect() int
	// PickRetire returns the active slot a scale-down should drain, or
	// -1 when none is eligible. HashPolicy and RingPolicy retire the
	// highest-indexed slot (the historical choice); LeastLoadedPolicy
	// retires the slot with the fewest live connections (cheapest drain).
	PickRetire() int
}

// New builds the placer selected by cfg. rng must be the simulator's
// seeded RNG (determinism oracle); load is consulted by PolicyLeastLoaded
// and may be nil for the other policies.
func New(cfg Config, rng *rand.Rand, load LoadFunc) (Placer, error) {
	switch cfg.Policy {
	case PolicyHash:
		return NewHashPolicy(rng), nil
	case PolicyRing:
		return NewRingPolicy(rng, DefaultRingVNodes), nil
	case PolicyLeastLoaded:
		if load == nil {
			return nil, fmt.Errorf("steer: least-loaded policy needs a load function")
		}
		return NewLeastLoadedPolicy(rng, load), nil
	default:
		return nil, fmt.Errorf("steer: unknown policy kind %d", int(cfg.Policy))
	}
}

// activeSet is the shared active-slot bookkeeping embedded by every policy.
type activeSet struct {
	active []int
}

func (a *activeSet) SetActive(slots []int) {
	a.active = append(a.active[:0], slots...)
}

func (a *activeSet) Active() []int { return a.active }

// retireHighest is the historical scale-down victim choice: the
// highest-indexed active slot.
func (a *activeSet) retireHighest() int {
	if len(a.active) == 0 {
		return -1
	}
	return a.active[len(a.active)-1]
}
