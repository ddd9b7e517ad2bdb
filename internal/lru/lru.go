// Package lru is the simulators' residency table: a fixed-capacity set
// of int64 keys (flash blocks, local memory pages) in recency order.
//
// Keys live in numbered slots. Slots fill in insertion order — the
// n-th key added takes slot n-1 — and a replacement reuses the slot it
// replaces, so a caller can keep per-slot state (dirty or reference
// bits) in plain slices and pick victims by slot: the tail for LRU, a
// uniform draw over [0, Len()) for random replacement, a hand for
// clock.
//
// Nodes live in one slab addressed by int32 slot numbers, linked most-
// to least-recently used; an open-addressed index (linear probing,
// backward-shift delete) maps a key to its slot. The slab and index
// grow lazily — doubling, capped at capacity — so a large table that a
// short replay never fills costs only what it holds, and once full a
// table allocates nothing.
package lru

import "math"

// Table is a fixed-capacity set of int64 keys in recency order. Its
// zero value is not usable; build one with New.
type Table struct {
	capacity int
	nodes    []node
	// head and tail are the most and least recently used slots
	// (nilSlot when empty).
	head, tail int32

	// index holds slot+1 per bucket (0 = empty), at load <= 1/2.
	index []int32
	shift uint // 64 - log2(len(index)): a bucket is the hash's top bits
}

type node struct {
	key        int64
	prev, next int32
}

const (
	nilSlot       = -1
	minIndexSize  = 16
	minSlabGrowth = 64
)

// New returns an empty table that holds up to capacity keys (at least
// one). It allocates only as keys arrive; slots are int32, so whatever
// the capacity, adding a key past math.MaxInt32 resident ones panics.
func New(capacity int) Table {
	t := Table{capacity: max(capacity, 1), head: nilSlot, tail: nilSlot}
	t.resize(minIndexSize)
	return t
}

// Cap returns the table's capacity.
func (t *Table) Cap() int { return t.capacity }

// Len returns the number of resident keys, which occupy slots
// [0, Len()).
func (t *Table) Len() int { return len(t.nodes) }

// Tail returns the least recently used slot; the table must not be
// empty.
func (t *Table) Tail() int { return int(t.tail) }

// Find returns key's slot, or -1 when key is not resident. It does not
// change the recency order.
//
//perf:hotpath
func (t *Table) Find(key int64) int {
	mask := len(t.index) - 1
	for pos := t.home(key); ; pos = (pos + 1) & mask {
		e := t.index[pos]
		if e == 0 {
			return -1
		}
		if t.nodes[e-1].key == key {
			return int(e - 1)
		}
	}
}

// Touch makes slot the most recently used.
//
//perf:hotpath
func (t *Table) Touch(slot int) {
	if s := int32(slot); s != t.head {
		t.moveFront(s)
	}
}

// Add puts a non-resident key in the next free slot, slot Len(), as
// the most recently used, and returns that slot. The table must not be
// full.
//
//perf:hotpath
func (t *Table) Add(key int64) int {
	if 2*(len(t.nodes)+1) > len(t.index) {
		t.resize(2 * len(t.index))
	}
	if len(t.nodes) == cap(t.nodes) {
		t.growSlab()
	}
	slot := int32(len(t.nodes))
	t.nodes = t.nodes[:slot+1]
	t.nodes[slot].key = key
	t.pushFront(slot)
	t.place(slot)
	return int(slot)
}

// Replace evicts slot's key and puts the non-resident key in its place
// as the most recently used.
//
//perf:hotpath
func (t *Table) Replace(slot int, key int64) {
	s := int32(slot)
	t.unlink(s)
	t.remove(t.bucket(s))
	t.nodes[s].key = key
	t.pushFront(s)
	t.place(s)
}

// home is the bucket a key hashes to (Fibonacci hashing, so runs of
// consecutive keys spread across the table).
//
//whvet:allow nodeterm the golden-ratio multiplier hashes keys into index buckets; no seed or random stream derives from it
func (t *Table) home(key int64) int {
	return int((uint64(key) * 0x9e3779b97f4a7c15) >> t.shift)
}

// bucket returns the index bucket that holds slot. Its probe compares
// bucket entries only, never the keys of other slots.
func (t *Table) bucket(slot int32) int {
	mask := len(t.index) - 1
	pos := t.home(t.nodes[slot].key)
	for t.index[pos] != slot+1 {
		pos = (pos + 1) & mask
	}
	return pos
}

// place indexes slot under its node's key, which must be absent.
func (t *Table) place(slot int32) {
	mask := len(t.index) - 1
	pos := t.home(t.nodes[slot].key)
	for t.index[pos] != 0 {
		pos = (pos + 1) & mask
	}
	t.index[pos] = slot + 1
}

// remove empties bucket pos, shifting later members of its probe run
// back so every lookup still reaches its key without tombstones.
func (t *Table) remove(pos int) {
	mask := len(t.index) - 1
	for next := (pos + 1) & mask; ; next = (next + 1) & mask {
		e := t.index[next]
		if e == 0 {
			break
		}
		// An entry may fill the hole unless its home lies cyclically
		// in (pos, next].
		if (next-t.home(t.nodes[e-1].key))&mask >= (next-pos)&mask {
			t.index[pos] = e
			pos = next
		}
	}
	t.index[pos] = 0
}

// moveFront relinks slot, which is not the head, as the head. Touch
// keeps this out of line so that Touch itself inlines.
func (t *Table) moveFront(slot int32) {
	t.unlink(slot)
	t.pushFront(slot)
}

func (t *Table) unlink(slot int32) {
	n := &t.nodes[slot]
	if n.prev == nilSlot {
		t.head = n.next
	} else {
		t.nodes[n.prev].next = n.next
	}
	if n.next == nilSlot {
		t.tail = n.prev
	} else {
		t.nodes[n.next].prev = n.prev
	}
}

func (t *Table) pushFront(slot int32) {
	n := &t.nodes[slot]
	n.prev, n.next = nilSlot, t.head
	if t.head == nilSlot {
		t.tail = slot
	} else {
		t.nodes[t.head].prev = slot
	}
	t.head = slot
}

// growSlab doubles the slab's room, never past capacity or the int32
// slot range.
func (t *Table) growSlab() {
	c := min(max(2*cap(t.nodes), minSlabGrowth), t.capacity, math.MaxInt32)
	nodes := make([]node, len(t.nodes), c)
	copy(nodes, t.nodes)
	t.nodes = nodes
}

// resize rebuilds the index with size buckets (a power of two).
func (t *Table) resize(size int) {
	t.index = make([]int32, size)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	for slot := range t.nodes {
		t.place(int32(slot))
	}
}
