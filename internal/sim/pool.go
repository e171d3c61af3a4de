package sim

import (
	"sort"
	"sync/atomic"
)

// Free lists for message boxes.
//
// A box whose life stays inside one simulator — a socket event, a TX
// request, a heartbeat, a delivery vector — comes from a free list that
// simulator owns (its domain, in PDES mode), never from a process-global
// sync.Pool. The simulation of one domain is single-threaded, so a list
// needs no synchronization; it keeps its boxes across garbage collections;
// and it counts: gets minus puts is the number of boxes in flight, which
// PoolStats publishes per kind. At quiescence every count is zero unless a
// box was lost (a crashed receiver, a drop fault — those boxes are left to
// the GC and stay counted) or a consumer forgot to return one.

// Pool is a free list of *T boxes owned by one simulator. A box that must
// find its way back without a Context remembers its Pool; Put on a nil Pool
// is a no-op, so a box built by value is simply left to the GC.
type Pool[T any] struct {
	kind       string
	free       []*T
	gets, puts uint64
}

// Get returns a box from the list, or a new one when it is empty. The box
// holds whatever its last user left in it; callers overwrite every field.
func (p *Pool[T]) Get() *T {
	p.gets++
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b
	}
	return new(T)
}

// Put returns b to the list. The caller clears the references b holds
// first; b may not be touched afterwards.
func (p *Pool[T]) Put(b *T) {
	if p == nil {
		return
	}
	p.puts++
	p.free = append(p.free, b)
}

func (p *Pool[T]) stat() PoolStat {
	return PoolStat{Kind: p.kind, Outstanding: int64(p.gets - p.puts)}
}

// PoolStat is one kind's count of boxes taken and not returned.
type PoolStat struct {
	Kind        string
	Outstanding int64
}

// Local names a value every simulator owns one of — one per PDES domain —
// created on first use. Packages declare their Locals at initialization.
type Local[T any] struct {
	idx  int
	init func(s *Simulator) *T
}

var numLocals atomic.Int32

// NewLocal declares a per-simulator value built by init.
func NewLocal[T any](init func(s *Simulator) *T) *Local[T] {
	return &Local[T]{idx: int(numLocals.Add(1)) - 1, init: init}
}

// Of returns s's value, creating it on first use.
func (l *Local[T]) Of(s *Simulator) *T {
	if l.idx < len(s.locals) {
		if v, ok := s.locals[l.idx].(*T); ok {
			return v
		}
	}
	return l.create(s)
}

func (l *Local[T]) create(s *Simulator) *T {
	for len(s.locals) <= l.idx {
		s.locals = append(s.locals, nil)
	}
	v := l.init(s)
	s.locals[l.idx] = v
	return v
}

// NewPoolKind declares a kind of pooled box: every simulator that uses it
// owns one Pool of it, counted under kind by PoolStats.
func NewPoolKind[T any](kind string) *Local[Pool[T]] {
	return NewLocal(func(s *Simulator) *Pool[T] {
		p := &Pool[T]{kind: kind}
		s.pools = append(s.pools, p)
		return p
	})
}

type poolCounter interface{ stat() PoolStat }

// PoolStats reports, per kind of box, how many were taken from this
// simulator's free lists and not returned, sorted by kind. On a PDES
// control plane it totals across all domains; call it only at a barrier.
func (s *Simulator) PoolStats() []PoolStat {
	tot := map[string]int64{}
	add := func(d *Simulator) {
		for _, p := range d.allPools() {
			st := p.stat()
			tot[st.Kind] += st.Outstanding
		}
	}
	add(s)
	if s.pdes != nil && s.parent == nil {
		for _, d := range s.pdes.domains {
			add(d)
		}
	}
	out := make([]PoolStat, 0, len(tot))
	for k, n := range tot {
		out = append(out, PoolStat{Kind: k, Outstanding: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

func (s *Simulator) allPools() []poolCounter {
	return append([]poolCounter{&s.batches, &s.fires, &s.beats}, s.pools...)
}
