package lru

import (
	"container/list"
	"testing"
)

// key returns the key in slot.
func (t *Table) key(slot int) int64 { return t.nodes[slot].key }

// indexed counts the occupied index buckets.
func (t *Table) indexed() int {
	n := 0
	for _, e := range t.index {
		if e != 0 {
			n++
		}
	}
	return n
}

// order lists the resident keys from most to least recently used.
func (t *Table) order() []int64 {
	keys := make([]int64, 0, len(t.nodes))
	for slot := t.head; slot != nilSlot; slot = t.nodes[slot].next {
		keys = append(keys, t.nodes[slot].key)
	}
	return keys
}

// touch reports whether key is resident and, if so, makes it the most
// recently used: a cache hit.
func (t *Table) touch(key int64) bool {
	slot := t.Find(key)
	if slot >= 0 {
		t.Touch(slot)
	}
	return slot >= 0
}

// insert adds a non-resident key, evicting the least recently used key
// when the table is full: a cache miss.
func (t *Table) insert(key int64) (victim int64, evicted bool) {
	if t.Len() < t.Cap() {
		t.Add(key)
		return 0, false
	}
	victim = t.key(t.Tail())
	t.Replace(t.Tail(), key)
	return victim, true
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

// FuzzLRU drives the table and the reference with the same access
// sequence — each op touches a key and inserts it on a miss, as the
// flash cache's reads and writes and the memory blade's LRU accesses
// do — and requires the same hit or miss, the same victim on every
// eviction, and the same final recency order. It also checks the slot
// contract the other policies rely on: a hit's slot holds its key, an
// added key takes slot Len()-1, and a replacement keeps its slot. Keys
// are op%keys scaled by stride, so strides spread or collide hash
// homes.
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
		got, want := New(c), newRefLRU(c)
		for i, op := range ops {
			key := int64(op%max(keys, 1)) * stride
			slot := got.Find(key)
			if slot >= 0 && got.key(slot) != key {
				t.Fatalf("op %d key %d: found in slot %d, which holds %d", i, key, slot, got.key(slot))
			}
			hit := got.touch(key)
			if refHit := want.touch(key); hit != refHit {
				t.Fatalf("op %d key %d: hit %v, reference %v", i, key, hit, refHit)
			}
			if hit {
				continue
			}
			n, tail := got.Len(), got.Tail()
			v, ev := got.insert(key)
			if rv, rev := want.insert(key); v != rv || ev != rev {
				t.Fatalf("op %d key %d: evicted (%d, %v), reference (%d, %v)", i, key, v, ev, rv, rev)
			}
			wantSlot := n
			if ev {
				wantSlot = tail
			}
			if got.Find(key) != wantSlot {
				t.Fatalf("op %d key %d: in slot %d, want %d", i, key, got.Find(key), wantSlot)
			}
			if got.Len() > c || got.indexed() != got.Len() {
				t.Fatalf("op %d: %d resident, %d indexed, capacity %d", i, got.Len(), got.indexed(), c)
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
