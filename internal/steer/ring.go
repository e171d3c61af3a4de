package steer

import (
	"math/rand"
	"sort"
)

// RingPolicy places unpinned flows on a consistent-hash ring: each active
// slot owns VNodes points on a 32-bit ring, and a flow hash is served by
// the first point clockwise from it. The payoff over modulo hashing is
// bounded remap: adding or removing one of N slots moves only that slot's
// arcs — an expected 1/N of the unpinned flow space — where the modulo
// changes the mapping of almost every hash. That matters across scale
// events for packets not yet covered by an exact filter (SYN
// retransmits): with the ring they keep landing on the queue that owns
// their state.
//
// Connect-side placement stays uniformly random (same draw pattern as
// HashPolicy): the connecting replica is chosen before any flow hash
// exists, and randomness preserves §3.8's unpredictability.
type RingPolicy struct {
	activeSet
	rng    *rand.Rand
	vnodes int
	points []ringPoint // sorted by hash; rebuilt on SetActive
}

type ringPoint struct {
	hash uint32
	slot int
}

// NewRingPolicy builds a consistent-hash-ring policy with vnodes virtual
// nodes per slot (DefaultRingVNodes when 0).
func NewRingPolicy(rng *rand.Rand, vnodes int) *RingPolicy {
	if vnodes <= 0 {
		vnodes = DefaultRingVNodes
	}
	return &RingPolicy{rng: rng, vnodes: vnodes}
}

// Name implements Placer.
func (p *RingPolicy) Name() string { return "ring" }

// SetActive implements Placer, rebuilding the ring. Point positions
// depend only on (slot, vnode), so the same membership always yields the
// same ring, and a membership delta moves only the delta's points.
func (p *RingPolicy) SetActive(slots []int) {
	p.activeSet.SetActive(slots)
	p.points = p.points[:0]
	for _, s := range slots {
		for v := 0; v < p.vnodes; v++ {
			p.points = append(p.points, ringPoint{hash: pointHash(s, v), slot: s})
		}
	}
	sort.Slice(p.points, func(i, j int) bool {
		if p.points[i].hash != p.points[j].hash {
			return p.points[i].hash < p.points[j].hash
		}
		return p.points[i].slot < p.points[j].slot
	})
}

// QueueFor implements Placer: the first ring point clockwise from hash.
func (p *RingPolicy) QueueFor(hash uint32) int {
	if len(p.points) == 0 {
		return -1
	}
	i := sort.Search(len(p.points), func(i int) bool { return p.points[i].hash >= hash })
	if i == len(p.points) {
		i = 0 // wrap past the highest point to the ring's start
	}
	return p.points[i].slot
}

// PickConnect implements Placer: a uniformly random active slot.
func (p *RingPolicy) PickConnect() int {
	if len(p.active) == 0 {
		return -1
	}
	return p.active[p.rng.Intn(len(p.active))]
}

// PickRetire implements Placer: the highest-indexed active slot.
func (p *RingPolicy) PickRetire() int { return p.retireHighest() }

// pointHash positions vnode v of slot s on the ring: FNV-1a over the
// (slot, vnode) pair, matching the spirit of proto.Flow.Hash so flow and
// point hashes share one 32-bit space.
func pointHash(slot, vnode int) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, b := range [8]byte{
		byte(slot >> 24), byte(slot >> 16), byte(slot >> 8), byte(slot),
		byte(vnode >> 24), byte(vnode >> 16), byte(vnode >> 8), byte(vnode),
	} {
		h ^= uint32(b)
		h *= prime32
	}
	return h
}
