package steer

import "math/rand"

// HashPolicy is the paper's placement: unpinned inbound flows are steered
// by hash modulo the active set (the i82599's RSS indirection programmed
// with the active queues), and each new outbound connection goes to a
// uniformly random active replica (§3.8: random placement gives load
// balancing and address-space unpredictability).
//
// It is the default, and it is byte-identical to the behaviour the
// repository had before the placement plane existed: QueueFor is the NIC's
// old built-in indirection, active[hash%len(active)], and PickConnect consumes
// exactly one rng.Intn draw per connect, like the management plane's old
// inline selection.
type HashPolicy struct {
	activeSet
	rng *rand.Rand
}

// NewHashPolicy builds the modulo-hash policy drawing connect-side
// randomness from rng (the simulator's seeded RNG).
func NewHashPolicy(rng *rand.Rand) *HashPolicy {
	return &HashPolicy{rng: rng}
}

// Name implements Placer.
func (p *HashPolicy) Name() string { return "hash" }

// QueueFor implements Placer: hash modulo the active set.
func (p *HashPolicy) QueueFor(hash uint32) int {
	if len(p.active) == 0 {
		return -1
	}
	return p.active[int(hash)%len(p.active)]
}

// PickConnect implements Placer: a uniformly random active slot.
func (p *HashPolicy) PickConnect() int {
	if len(p.active) == 0 {
		return -1
	}
	return p.active[p.rng.Intn(len(p.active))]
}

// PickRetire implements Placer: the highest-indexed active slot.
func (p *HashPolicy) PickRetire() int { return p.retireHighest() }
