package tcpeng

import (
	"fmt"
	"math/rand"
	"testing"

	"neat/internal/proto"
)

// TestConnTableMatchesMap runs random inserts, lookups and removes through
// several growths of the connection table against a map[connKey]*Conn
// reference. Keys come from a small base set and differ from their base in
// one field only, so equal hashes of near-equal keys and chains holding
// several of them both occur.
func TestConnTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := connKey{localAddr: proto.IPv4(10, 0, 0, 1), localPort: 80,
		remoteAddr: proto.IPv4(10, 0, 1, 1), remotePort: 40000}
	key := func() connKey {
		k := base
		v := rng.Intn(3000)
		switch rng.Intn(4) {
		case 0:
			k.localAddr[3] = byte(v)
			k.localAddr[2] = byte(v >> 8)
		case 1:
			k.localPort = uint16(v)
		case 2:
			k.remoteAddr[3] = byte(v)
			k.remoteAddr[2] = byte(v >> 8)
		case 3:
			k.remotePort = uint16(v)
		}
		return k
	}

	tab := newConnTable()
	ref := map[connKey]*Conn{}
	var live []*Conn // the reference's values, for picking one to remove
	grows := 0
	check := func(op int) {
		if tab.n != len(ref) {
			t.Fatalf("op %d: table holds %d PCBs, reference %d", op, tab.n, len(ref))
		}
		seen := 0
		tab.all(func(c *Conn) {
			if ref[c.key] != c {
				t.Fatalf("op %d: table yields %v, which the reference does not hold", op, c.key)
			}
			seen++
		})
		if seen != len(ref) {
			t.Fatalf("op %d: iteration yields %d PCBs, reference holds %d", op, seen, len(ref))
		}
	}
	for op := 0; op < 40000; op++ {
		// Half inserts, three tenths removes: the table fills towards
		// the point where inserts hitting a held key balance the removes,
		// some 4,800 of the 12,000 keys, and grows ten times on the way.
		switch r := rng.Intn(10); {
		case r < 5:
			k := key()
			if tab.get(k) != ref[k] {
				t.Fatalf("op %d: get(%v) disagrees with the reference before insert", op, k)
			}
			if ref[k] != nil {
				continue
			}
			c := &Conn{key: k}
			buckets := len(tab.buckets)
			tab.insert(c)
			if len(tab.buckets) != buckets {
				grows++
			}
			ref[k] = c
			live = append(live, c)
		case r < 8 && len(live) > 0:
			i := rng.Intn(len(live))
			c := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			tab.remove(c)
			delete(ref, c.key)
			if c.link != nil {
				t.Fatalf("op %d: remove left %v linked", op, c.key)
			}
			if tab.get(c.key) != nil {
				t.Fatalf("op %d: %v still found after remove", op, c.key)
			}
		default:
			k := key()
			if got, want := tab.get(k), ref[k]; got != want {
				t.Fatalf("op %d: get(%v) = %p, reference %p", op, k, got, want)
			}
		}
		if op%1000 == 0 {
			check(op)
		}
	}
	check(-1)
	for k, c := range ref {
		if tab.get(k) != c {
			t.Fatalf("get(%v) lost its PCB", k)
		}
	}
	if grows < 8 || tab.n > len(tab.buckets) {
		t.Fatalf("%d growths to %d buckets for %d PCBs: want at least 8, and no more PCBs than buckets",
			grows, len(tab.buckets), tab.n)
	}
}

// BenchmarkConnLookup prices a hit in the connection table against the same
// lookup in the map[connKey]*Conn it replaced, in random order over 1,000
// connections (every PCB in cache) and over 100,000. Each hit reads the
// PCB's state, as Engine.Input goes on to do, so both sides pay for
// reaching the PCB.
func BenchmarkConnLookup(b *testing.B) {
	for _, conns := range []int{1_000, 100_000} {
		keys := make([]connKey, conns)
		tab := newConnTable()
		ref := make(map[connKey]*Conn)
		for i := range keys {
			keys[i] = connKey{localAddr: proto.IPv4(10, 0, 0, 1), localPort: 80,
				remoteAddr: proto.IPv4(10, 1, byte(i>>16), byte(i>>8)), remotePort: uint16(i)}
			c := &Conn{key: keys[i], state: StateEstablished}
			tab.insert(c)
			ref[keys[i]] = c
		}
		order := rand.New(rand.NewSource(1)).Perm(conns)
		b.Run(fmt.Sprintf("table/%d", conns), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if tab.get(keys[order[i%conns]]).state != StateEstablished {
					b.Fatal("miss")
				}
			}
		})
		b.Run(fmt.Sprintf("map/%d", conns), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if ref[keys[order[i%conns]]].state != StateEstablished {
					b.Fatal("miss")
				}
			}
		})
	}
}
