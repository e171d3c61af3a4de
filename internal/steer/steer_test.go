package steer

import (
	"math/rand"
	"testing"
)

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		name string
		want PolicyKind
		ok   bool
	}{
		{"", PolicyHash, true},
		{"hash", PolicyHash, true},
		{"ring", PolicyRing, true},
		{"least-loaded", PolicyLeastLoaded, true},
		{"leastloaded", PolicyLeastLoaded, true},
		{"p2c", PolicyLeastLoaded, true},
		{"round-robin", 0, false},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.name)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", c.name, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParsePolicy(%q) succeeded, want error", c.name)
		}
	}
	for _, k := range []PolicyKind{PolicyHash, PolicyRing, PolicyLeastLoaded} {
		if got, err := ParsePolicy(k.String()); err != nil || got != k {
			t.Errorf("round-trip %v: got %v, %v", k, got, err)
		}
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := New(Config{Policy: PolicyLeastLoaded}, rng, nil); err == nil {
		t.Error("least-loaded without load function accepted")
	}
	if _, err := New(Config{Policy: PolicyKind(99)}, rng, nil); err == nil {
		t.Error("unknown policy kind accepted")
	}
}

// TestHashPolicyMatchesLegacyRSS pins the byte-identity contract: the
// default policy must reproduce the NIC's historical
// rssQueues[hash%len(rssQueues)] indirection exactly.
func TestHashPolicyMatchesLegacyRSS(t *testing.T) {
	p := NewHashPolicy(rand.New(rand.NewSource(1)))
	for _, active := range [][]int{{0}, {0, 1}, {0, 2, 5}, {1, 3, 4, 7}} {
		p.SetActive(active)
		for h := uint32(0); h < 10_000; h++ {
			want := active[int(h)%len(active)]
			if got := p.QueueFor(h); got != want {
				t.Fatalf("active=%v hash=%d: got %d, want %d", active, h, got, want)
			}
		}
	}
	p.SetActive(nil)
	if got := p.QueueFor(7); got != -1 {
		t.Fatalf("empty set: got %d, want -1 (drop-all)", got)
	}
	if got := p.PickConnect(); got != -1 {
		t.Fatalf("empty set connect: got %d, want -1", got)
	}
}

// TestHashPolicyConnectDrawPattern pins the RNG contract: PickConnect
// consumes exactly one Intn(len(active)) draw, so a system built on the
// placement plane replays the same placement sequence as the pre-plane
// management code for the same simulator seed.
func TestHashPolicyConnectDrawPattern(t *testing.T) {
	p := NewHashPolicy(rand.New(rand.NewSource(42)))
	p.SetActive([]int{2, 3, 5})
	ref := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		want := []int{2, 3, 5}[ref.Intn(3)]
		if got := p.PickConnect(); got != want {
			t.Fatalf("draw %d: got %d, want %d", i, got, want)
		}
	}
}

// TestRingBoundedRemap is the acceptance assertion for the consistent
// hash ring: adding or removing a single slot out of N must remap at most
// 2/N of the unpinned flow space (the ideal is 1/N; 2/N allows vnode
// placement variance), where modulo hashing remaps the vast majority.
func TestRingBoundedRemap(t *testing.T) {
	const samples = 200_000
	rng := rand.New(rand.NewSource(7))
	hashes := make([]uint32, samples)
	for i := range hashes {
		hashes[i] = rng.Uint32()
	}
	for _, n := range []int{3, 4, 6, 8} {
		before := make([]int, n)
		for i := range before {
			before[i] = i
		}
		p := NewRingPolicy(rand.New(rand.NewSource(1)), DefaultRingVNodes)
		p.SetActive(before)
		was := make([]int, samples)
		for i, h := range hashes {
			was[i] = p.QueueFor(h)
		}

		check := func(label string, active []int, nowN int) {
			t.Helper()
			p.SetActive(active)
			moved := 0
			inSet := map[int]bool{}
			for _, s := range active {
				inSet[s] = true
			}
			for i, h := range hashes {
				got := p.QueueFor(h)
				// Flows whose old owner left the set MUST move; they do
				// not count against the remap budget.
				if !inSet[was[i]] {
					continue
				}
				if got != was[i] {
					moved++
				}
			}
			frac := float64(moved) / float64(samples)
			bound := 2.0 / float64(nowN)
			if frac > bound {
				t.Errorf("N=%d %s: %.4f of surviving-owner flows remapped, bound %.4f",
					n, label, frac, bound)
			}
		}

		// Scale-up: add slot n.
		grown := append(append([]int{}, before...), n)
		check("add", grown, n+1)
		// Scale-down: remove the highest slot.
		check("remove", before[:n-1], n-1)
	}
}

// TestRingDisjointMembershipDisjointOwnership sanity-checks the ring maps
// only onto current members and covers the whole hash space.
func TestRingCoversActiveSet(t *testing.T) {
	p := NewRingPolicy(rand.New(rand.NewSource(1)), DefaultRingVNodes)
	active := []int{0, 2, 5, 6}
	p.SetActive(active)
	seen := map[int]int{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100_000; i++ {
		q := p.QueueFor(rng.Uint32())
		seen[q]++
	}
	for _, s := range active {
		if seen[s] == 0 {
			t.Errorf("slot %d never chosen", s)
		}
	}
	for q := range seen {
		found := false
		for _, s := range active {
			if q == s {
				found = true
			}
		}
		if !found {
			t.Errorf("non-member slot %d chosen", q)
		}
	}
	p.SetActive(nil)
	if got := p.QueueFor(1); got != -1 {
		t.Fatalf("empty ring: got %d, want -1", got)
	}
}

// TestRingDeterministic: the ring depends only on membership, not on the
// order or history of SetActive calls.
func TestRingDeterministic(t *testing.T) {
	a := NewRingPolicy(rand.New(rand.NewSource(1)), 32)
	b := NewRingPolicy(rand.New(rand.NewSource(99)), 32)
	a.SetActive([]int{0, 1, 2, 3})
	a.SetActive([]int{0, 1, 2}) // shrink then regrow: history must not matter
	a.SetActive([]int{0, 1, 2, 3})
	b.SetActive([]int{0, 1, 2, 3})
	for h := uint32(0); h < 50_000; h++ {
		if a.QueueFor(h) != b.QueueFor(h) {
			t.Fatalf("hash %d: ring differs with same membership", h)
		}
	}
}

// TestLeastLoadedPrefersIdleSlot: with a skewed load vector, both the
// packet path and the connect path steer towards the idle slot.
func TestLeastLoadedPrefersIdleSlot(t *testing.T) {
	loads := map[int]int{0: 100, 1: 100, 2: 0}
	p := NewLeastLoadedPolicy(rand.New(rand.NewSource(1)),
		func(slot int) int { return loads[slot] })
	p.SetActive([]int{0, 1, 2})

	conn := map[int]int{}
	for i := 0; i < 3000; i++ {
		q := p.PickConnect()
		if q < 0 {
			t.Fatal("no slot chosen")
		}
		conn[q]++
	}
	// Power-of-two-choices: slot 2 wins every comparison it appears in
	// (~2/3 of draws); the loaded slots split the rest.
	if conn[2] < conn[0]+conn[1] {
		t.Fatalf("connect placement not skew-resistant: %v", conn)
	}

	queue := map[int]int{}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 3000; i++ {
		queue[p.QueueFor(rng.Uint32())]++
	}
	if queue[2] < queue[0] || queue[2] < queue[1] {
		t.Fatalf("queue placement not skew-resistant: %v", queue)
	}
}

// TestLeastLoadedQueueForStable: with loads and membership frozen, a
// flow's hash always maps to the same slot (packets of one flow must not
// scatter before their filter lands).
func TestLeastLoadedQueueForStable(t *testing.T) {
	p := NewLeastLoadedPolicy(rand.New(rand.NewSource(1)),
		func(slot int) int { return slot * 10 })
	p.SetActive([]int{0, 1, 2, 3})
	for h := uint32(0); h < 20_000; h++ {
		if p.QueueFor(h) != p.QueueFor(h) {
			t.Fatalf("hash %d: unstable placement", h)
		}
	}
}

// TestLeastLoadedStickyAcrossLoadFlips: a flow keeps its slot even when
// the load ranking inverts mid-handshake (the filter that pins it only
// exists once the connection establishes), but loses it when the slot
// leaves the active set.
func TestLeastLoadedStickyAcrossLoadFlips(t *testing.T) {
	loads := map[int]int{0: 0, 1: 100}
	p := NewLeastLoadedPolicy(rand.New(rand.NewSource(1)),
		func(slot int) int { return loads[slot] })
	p.SetActive([]int{0, 1})
	first := p.QueueFor(77)
	loads[0], loads[1] = loads[1], loads[0]
	if got := p.QueueFor(77); got != first {
		t.Fatalf("load flip re-steered the flow: %d -> %d", first, got)
	}
	p.SetActive([]int{0, 1}) // same membership: sticky entries survive
	if got := p.QueueFor(77); got != first {
		t.Fatalf("SetActive with same membership re-steered the flow: %d -> %d", first, got)
	}
	other := 1 - first
	p.SetActive([]int{other}) // the flow's slot left: entry purged
	if got := p.QueueFor(77); got != other {
		t.Fatalf("after slot %d left: got %d, want %d", first, got, other)
	}
}

func TestLeastLoadedPickRetire(t *testing.T) {
	loads := map[int]int{0: 5, 1: 2, 2: 9}
	p := NewLeastLoadedPolicy(rand.New(rand.NewSource(1)),
		func(slot int) int { return loads[slot] })
	p.SetActive([]int{0, 1, 2})
	if got := p.PickRetire(); got != 1 {
		t.Fatalf("PickRetire = %d, want 1 (least loaded)", got)
	}
	p.SetActive(nil)
	if got := p.PickRetire(); got != -1 {
		t.Fatalf("PickRetire on empty set = %d, want -1", got)
	}
}

func TestHashAndRingPickRetireHighest(t *testing.T) {
	for _, p := range []Placer{
		NewHashPolicy(rand.New(rand.NewSource(1))),
		NewRingPolicy(rand.New(rand.NewSource(1)), 16),
	} {
		p.SetActive([]int{1, 4, 6})
		if got := p.PickRetire(); got != 6 {
			t.Fatalf("%s: PickRetire = %d, want 6", p.Name(), got)
		}
	}
}
