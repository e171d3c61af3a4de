package bufpool

import "sync"

// Slab support: refcounted payload blocks carved into Refs, so application
// payloads hand off by reference (scatter-gather) instead of allocating a
// fresh []byte per message.
//
// Ownership contract (extends the package contract): a Ref is a view into a
// refcounted slab block. Whoever holds a Ref may read r.B until it calls
// Release; handing a Ref across a channel transfers that obligation to the
// receiver. Retain makes an additional independent obligation. When the last
// reference drops, the block returns to the ordinary size-class pools.
//
// The refcount is a plain int, not atomic: a slab is only ever touched by
// one simulator goroutine at a time (Refs never cross simulators), and
// cross-goroutine block recycling is synchronized by the sync.Pools.

// slab is one refcounted block.
type slab struct {
	buf  []byte
	refs int
}

var slabPool = sync.Pool{New: func() any { return new(slab) }}

func newSlab(n int) *slab {
	s := slabPool.Get().(*slab)
	s.buf = Get(n)
	s.refs = 1
	return s
}

func (s *slab) release() {
	s.refs--
	if s.refs == 0 {
		Put(s.buf)
		s.buf = nil
		slabPool.Put(s)
	}
}

// Ref is a reference-counted view of bytes inside a slab block. The zero
// Ref is valid and inert: B is nil and Release is a no-op, so non-slab
// code paths can pass Refs around unconditionally.
type Ref struct {
	s *slab
	B []byte
}

// Retain adds an independent reference to the underlying block and returns
// the same view. Each Retain obligates one more Release.
func (r Ref) Retain() Ref {
	if r.s != nil {
		r.s.refs++
	}
	return r
}

// Release drops this reference. The last Release returns the block to the
// buffer pools. Using r.B after Release is a use-after-free.
func (r Ref) Release() {
	if r.s != nil {
		r.s.release()
	}
}

// Arena carves Refs out of pooled blocks. Small allocations share a
// 4 KiB block; an allocation larger than half of it gets a dedicated block
// so one big payload does not pin a mostly-idle shared block. The arena
// holds its own reference on the current block, dropped when it moves to
// the next, so a block is recycled exactly when the arena has moved on AND
// every Ref carved from it has been released.
//
// Every arena pins its current block while idle, and each application
// process owns one, so the block is sized to the replies that share it
// (headers and small bodies of about 100 bytes), not to bulk bodies:
// those come in 64 KiB chunks and take dedicated blocks at any block size.
type Arena struct {
	cur *slab
	off int
}

// arenaBlock is the shared-block capacity, a bufpool size class.
const arenaBlock = 4096

// Alloc returns a Ref over n writable bytes. The caller fills r.B and hands
// the Ref off (or Releases it on error paths).
func (a *Arena) Alloc(n int) Ref {
	if n > arenaBlock/2 {
		s := newSlab(n)
		return Ref{s: s, B: s.buf[:n:n]}
	}
	if a.cur == nil || a.off+n > len(a.cur.buf) {
		if a.cur != nil {
			a.cur.release()
		}
		a.cur = newSlab(arenaBlock)
		a.off = 0
	}
	b := a.cur.buf[a.off : a.off+n : a.off+n]
	a.off += n
	a.cur.refs++
	return Ref{s: a.cur, B: b}
}

// AllocCopy is Alloc plus a copy-in of p.
func (a *Arena) AllocCopy(p []byte) Ref {
	r := a.Alloc(len(p))
	copy(r.B, p)
	return r
}

// AllocString is Alloc plus a copy-in of s, avoiding a []byte(s) conversion
// allocation at the caller.
func (a *Arena) AllocString(s string) Ref {
	r := a.Alloc(len(s))
	copy(r.B, s)
	return r
}
