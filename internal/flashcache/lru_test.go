package flashcache

import (
	"container/list"
	"testing"

	"warehousesim/internal/stats"
	"warehousesim/internal/trace"
)

// len returns the number of resident keys.
func (l *lru) len() int { return len(l.nodes) }

// indexed counts the occupied index buckets.
func (l *lru) indexed() int {
	n := 0
	for _, e := range l.index {
		if e != 0 {
			n++
		}
	}
	return n
}

// order lists the resident keys from most to least recently used.
func (l *lru) order() []int64 {
	keys := make([]int64, 0, len(l.nodes))
	for slot := l.head; slot != nilSlot; slot = l.nodes[slot].next {
		keys = append(keys, l.nodes[slot].key)
	}
	return keys
}

// refLRU is the reference model: a container/list + map LRU.
type refLRU struct {
	capacity int
	table    *list.List
	index    map[int64]*list.Element
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{capacity: capacity, table: list.New(), index: map[int64]*list.Element{}}
}

func (r *refLRU) touch(key int64) bool {
	el, ok := r.index[key]
	if ok {
		r.table.MoveToFront(el)
	}
	return ok
}

func (r *refLRU) insert(key int64) (victim int64, evicted bool) {
	if r.table.Len() >= r.capacity {
		el := r.table.Back()
		victim, evicted = el.Value.(int64), true
		r.table.Remove(el)
		delete(r.index, victim)
	}
	r.index[key] = r.table.PushFront(key)
	return victim, evicted
}

func (r *refLRU) order() []int64 {
	keys := make([]int64, 0, r.table.Len())
	for el := r.table.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(int64))
	}
	return keys
}

// FuzzLRU drives the slab LRU and the reference with the same access
// sequence — each op touches a key and inserts it on a miss, as Sim's
// reads and writes do — and requires the same hit or miss, the same
// victim on every eviction, and the same final recency order. Keys are
// op%keys scaled by stride, so strides spread or collide hash homes.
func FuzzLRU(f *testing.F) {
	f.Add(uint8(1), uint8(3), int64(1), []byte{0, 1, 0, 2, 2, 1, 0})
	f.Add(uint8(2), uint8(4), int64(1), []byte{0, 1, 0, 2, 1, 3, 0, 3, 2, 2, 1})
	f.Add(uint8(7), uint8(9), int64(4096), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 3, 8, 1, 7, 2, 6})
	// Eviction-heavy: about three keys per slot.
	heavy := make([]byte, 512)
	for i := range heavy {
		heavy[i] = byte(i*37 + i/7)
	}
	f.Add(uint8(16), uint8(48), int64(-977), heavy)
	f.Fuzz(func(t *testing.T, capacity, keys uint8, stride int64, ops []byte) {
		c := 1 + int(capacity%64)
		got, want := newLRU(c), newRefLRU(c)
		for i, op := range ops {
			key := int64(op%max(keys, 1)) * stride
			hit := got.touch(key)
			if refHit := want.touch(key); hit != refHit {
				t.Fatalf("op %d key %d: hit %v, reference %v", i, key, hit, refHit)
			}
			if hit {
				continue
			}
			v, ev := got.insert(key)
			if rv, rev := want.insert(key); v != rv || ev != rev {
				t.Fatalf("op %d key %d: evicted (%d, %v), reference (%d, %v)", i, key, v, ev, rv, rev)
			}
			if got.len() > c || got.indexed() != got.len() {
				t.Fatalf("op %d: %d resident, %d indexed, capacity %d", i, got.len(), got.indexed(), c)
			}
		}
		g, w := got.order(), want.order()
		if len(g) != len(w) {
			t.Fatalf("final order %v, reference %v", g, w)
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("final order %v, reference %v", g, w)
			}
		}
	})
}

// TestReplaySteadyStateAllocs pins the allocation contract: once the
// slab has filled, a replay allocates only its one emit closure, however
// many block operations it runs.
func TestReplaySteadyStateAllocs(t *testing.T) {
	s, err := New(Config{CacheBytes: 256 * 4096, BlockBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	sd, err := trace.NewSyntheticDisk(4096, 0.8, 4, 2, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(5)
	Replay(s, sd, r, 2000)
	if s.blocks.len() != s.Capacity() {
		t.Fatalf("warm-up left %d of %d blocks resident", s.blocks.len(), s.Capacity())
	}
	if a := testing.AllocsPerRun(20, func() { Replay(s, sd, r, 500) }); a > 1 {
		t.Fatalf("replay of 500 requests allocated %g times, want <= 1", a)
	}
}
