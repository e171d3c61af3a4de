// Package bufpool provides size-classed byte-buffer pools for the packet
// hot path. Frames, marshalled segments and scratch buffers are drawn from
// and returned to these pools instead of being garbage for every hop.
//
// Ownership contract: a buffer obtained with Get belongs to exactly one
// owner at a time. Handing it to a consumer (wire transmit, frame decode)
// transfers ownership; the producer must not touch it again. The terminal
// consumer returns it with Put. Losing a buffer (never calling Put) is
// safe — it is simply collected — so error paths need no careful cleanup.
//
// The pools are safe for concurrent use: the parallel experiment runner
// runs one simulator per goroutine against the same shared pools.
package bufpool

import (
	"sync"
	"unsafe"
)

// classes are the pooled capacities. 2048 covers a full Ethernet frame
// (1514 B + overheads); the larger classes serve TSO trains, loopback
// super-frames and reassembly scratch.
var classes = [...]int{64, 256, 1024, 2048, 4096, 16384, 65536, 262144}

// pools[i] holds buffers of capacity classes[i] as pointers to their
// arrays' first byte. A pointer is stored in an interface without boxing,
// so Get and Put each cost one pool operation and allocate nothing.
var pools [len(classes)]sync.Pool

// classIndex returns the smallest class holding n bytes, or -1 if n is
// larger than every class.
func classIndex(n int) int {
	for i, c := range classes {
		if n <= c {
			return i
		}
	}
	return -1
}

// Get returns a buffer with len n. Its capacity is the size class, so
// callers that marshal with append (via b[:0]) never reallocate.
func Get(n int) []byte {
	ci := classIndex(n)
	if ci < 0 {
		return make([]byte, n)
	}
	if p, _ := pools[ci].Get().(*byte); p != nil {
		return unsafe.Slice(p, classes[ci])[:n]
	}
	return make([]byte, n, classes[ci])
}

// Put returns a buffer to its pool. Only buffers whose capacity exactly
// matches a size class are kept (anything else — including buffers that
// outgrew their class via append — is dropped for the GC). Put of a nil
// or foreign buffer is a no-op, so callers may Put unconditionally.
func Put(b []byte) {
	ci := classIndex(cap(b))
	if ci < 0 || cap(b) != classes[ci] {
		return
	}
	pools[ci].Put(unsafe.SliceData(b))
}
