package bufpool

import (
	"math/rand"
	"sync"
	"testing"
)

func TestArenaAllocSizesAndIsolation(t *testing.T) {
	var a Arena
	refs := make([]Ref, 0, 64)
	for i := 0; i < 64; i++ {
		n := 1 + i*7%300
		r := a.Alloc(n)
		if len(r.B) != n {
			t.Fatalf("Alloc(%d) returned len %d", n, len(r.B))
		}
		if cap(r.B) != n {
			t.Fatalf("Alloc(%d) returned cap %d; carves must be capacity-bounded", n, cap(r.B))
		}
		for j := range r.B {
			r.B[j] = byte(i)
		}
		refs = append(refs, r)
	}
	for i, r := range refs {
		for j, b := range r.B {
			if b != byte(i) {
				t.Fatalf("ref %d byte %d clobbered: got %d", i, j, b)
			}
		}
		r.Release()
	}
}

func TestArenaDedicatedBigBlocks(t *testing.T) {
	var a Arena
	small := a.Alloc(16)
	big := a.Alloc(4000) // > arenaBlock/2: dedicated block
	if big.s == small.s {
		t.Fatal("big allocation shared the arena block")
	}
	if len(big.B) != 4000 {
		t.Fatalf("big alloc len %d", len(big.B))
	}
	big.Release()
	small.Release()
}

func TestZeroRefIsInert(t *testing.T) {
	var r Ref
	r.Release() // must not panic
	r2 := r.Retain()
	r2.Release()
	if r2.B != nil {
		t.Fatal("zero ref has bytes")
	}
}

func TestRetainKeepsBlockAlive(t *testing.T) {
	var a Arena
	r := a.AllocCopy([]byte("hello"))
	dup := r.Retain()
	r.Release()
	if string(dup.B) != "hello" {
		t.Fatalf("retained view lost data: %q", dup.B)
	}
	dup.Release()
}

// TestSlabOwnershipProperty is the randomized ownership check: several
// goroutines, each with a private arena but all sharing the global pools,
// carve refs, stamp them, retain/release in random order and verify no
// stamp is ever clobbered while a reference is live. Run under -race this
// also proves block recycling across goroutines is race-free.
func TestSlabOwnershipProperty(t *testing.T) {
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var a Arena
			type live struct {
				r     Ref
				stamp byte
			}
			var window []live
			for i := 0; i < 5000; i++ {
				n := 1 + rng.Intn(3000) // crosses the dedicated-block threshold
				r := a.Alloc(n)
				stamp := byte(rng.Intn(256))
				for j := range r.B {
					r.B[j] = stamp
				}
				if rng.Intn(4) == 0 {
					// A second owner holds on and is checked later too.
					window = append(window, live{r.Retain(), stamp})
				}
				window = append(window, live{r, stamp})
				// Release a random prefix of the window once it grows.
				for len(window) > 32 {
					k := rng.Intn(len(window))
					l := window[k]
					for j, b := range l.r.B {
						if b != l.stamp {
							t.Errorf("slab ownership violated: live ref clobbered at byte %d", j)
							return
						}
					}
					l.r.Release()
					window[k] = window[len(window)-1]
					window = window[:len(window)-1]
				}
			}
			for _, l := range window {
				for j, b := range l.r.B {
					if b != l.stamp {
						t.Errorf("slab ownership violated in drain at byte %d", j)
						return
					}
				}
				l.r.Release()
			}
		}(int64(w + 1))
	}
	wg.Wait()
}
