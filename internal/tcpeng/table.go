package tcpeng

import (
	"encoding/binary"
	"hash/maphash"
	"math/bits"
)

// connTable indexes an engine's live PCBs by 4-tuple. It is a chained hash
// table whose chains run through the PCBs themselves: each bucket holds the
// head of a list linked by Conn.link, the same pointer that chains a parked
// PCB on the engine's free list. A PCB is on exactly one of the two chains,
// so the table costs the PCB no byte, and an entry costs one bucket pointer.
//
// The bucket count is a power of two and doubles when the entries outnumber
// the buckets, so a chain holds one PCB or fewer on average. The table never
// shrinks, as a Go map never does. The hash is keyed per engine, by two
// words drawn from a fresh maphash seed: a peer that picks its addresses
// and ports cannot aim them at one chain without knowing the keys, and the
// keys are not drawn from the simulator's RNG, so no ISN moves. Iteration
// (all) follows the buckets, an order as arbitrary as a map's.
type connTable struct {
	buckets []*Conn
	n       int
	k0, k1  uint64 // hash keys
}

// minConnBuckets is the bucket count a new table starts with.
const minConnBuckets = 8

func newConnTable() connTable {
	seed := maphash.MakeSeed()
	return connTable{
		buckets: make([]*Conn, minConnBuckets),
		k0:      maphash.Bytes(seed, []byte{0}),
		k1:      maphash.Bytes(seed, []byte{1}),
	}
}

// slot returns the bucket that holds k's chain. The hash folds the 128-bit
// product of the keyed addresses and the keyed ports, the multiply-fold
// mix of wyhash (the Go runtime's map hash on hardware without AES), so
// every bit of the key reaches the low bits the mask keeps. A lookup with
// it takes about two thirds of the time one takes with maphash.Bytes over
// the 12 key bytes (BenchmarkConnLookup, 1,000 connections).
func (t *connTable) slot(k connKey) **Conn {
	a := uint64(binary.LittleEndian.Uint32(k.localAddr[:]))<<32 | uint64(binary.LittleEndian.Uint32(k.remoteAddr[:]))
	b := uint64(k.localPort)<<16 | uint64(k.remotePort)
	hi, lo := bits.Mul64(a^t.k0, b^t.k1)
	return &t.buckets[(hi^lo)&uint64(len(t.buckets)-1)]
}

// get returns the live PCB with key k, or nil.
func (t *connTable) get(k connKey) *Conn {
	for c := *t.slot(k); c != nil; c = c.link {
		if c.key == k {
			return c
		}
	}
	return nil
}

// insert adds c under c.key, which no live PCB may hold.
func (t *connTable) insert(c *Conn) {
	if t.n == len(t.buckets) {
		t.grow()
	}
	s := t.slot(c.key)
	c.link, *s = *s, c
	t.n++
}

// remove takes c off its chain and clears its link.
func (t *connTable) remove(c *Conn) {
	for p := t.slot(c.key); *p != nil; p = &(*p).link {
		if *p == c {
			*p, c.link = c.link, nil
			t.n--
			return
		}
	}
}

// grow doubles the bucket array and moves every PCB to its new chain.
func (t *connTable) grow() {
	old := t.buckets
	t.buckets = make([]*Conn, 2*len(old))
	for _, c := range old {
		for c != nil {
			next := c.link
			s := t.slot(c.key)
			c.link, *s = *s, c
			c = next
		}
	}
}

// all calls fn for every live PCB. fn must not insert or remove.
func (t *connTable) all(fn func(*Conn)) {
	for _, c := range t.buckets {
		for ; c != nil; c = c.link {
			fn(c)
		}
	}
}
