package flashcache

// lru is the cache's block table: a fixed-capacity set of int64 block
// numbers in recency order. Nodes live in one slab addressed by int32
// slot numbers, linked most- to least-recently used; an open-addressed
// index (linear probing, backward-shift delete) maps a block to its
// slot. Once the slab has grown to capacity, an eviction hands the
// victim's slot straight to the incoming block, so steady-state
// operations allocate nothing.
//
// The slab and index grow lazily — doubling, capped at capacity — so a
// large cache that a short replay never fills costs only what it holds.
type lru struct {
	capacity int
	nodes    []lruNode
	// head and tail are the most and least recently used slots
	// (nilSlot when empty).
	head, tail int32

	// index holds slot+1 per bucket (0 = empty), at load <= 1/2.
	index []int32
	shift uint // 64 - log2(len(index)): a bucket is the hash's top bits
}

type lruNode struct {
	key        int64
	prev, next int32
}

const (
	nilSlot       = -1
	minIndexSize  = 16
	minSlabGrowth = 64
)

func newLRU(capacity int) lru {
	l := lru{capacity: capacity, head: nilSlot, tail: nilSlot}
	l.resize(minIndexSize)
	return l
}

// touch reports whether key is resident and, if so, makes it the most
// recently used.
//
//perf:hotpath
func (l *lru) touch(key int64) bool {
	pos := l.find(key)
	if pos < 0 {
		return false
	}
	slot := l.index[pos] - 1
	if slot != l.head {
		l.unlink(slot)
		l.pushFront(slot)
	}
	return true
}

// insert adds a non-resident key as the most recently used. When the
// cache is full it first evicts the least recently used key, returned
// as victim with evicted set.
//
//perf:hotpath
func (l *lru) insert(key int64) (victim int64, evicted bool) {
	var slot int32
	if len(l.nodes) >= l.capacity {
		slot = l.tail
		victim, evicted = l.nodes[slot].key, true
		l.unlink(slot)
		l.remove(l.find(victim))
	} else {
		if 2*(len(l.nodes)+1) > len(l.index) {
			l.resize(2 * len(l.index))
		}
		if len(l.nodes) == cap(l.nodes) {
			l.growSlab()
		}
		slot = int32(len(l.nodes))
		l.nodes = l.nodes[:slot+1]
	}
	l.nodes[slot].key = key
	l.pushFront(slot)
	l.place(slot)
	return victim, evicted
}

// home is the bucket a key hashes to (Fibonacci hashing, so runs of
// consecutive block numbers spread across the table).
//
//whvet:allow nodeterm the golden-ratio multiplier hashes block numbers into index buckets; no seed or random stream derives from it
func (l *lru) home(key int64) int {
	return int((uint64(key) * 0x9e3779b97f4a7c15) >> l.shift)
}

// find returns the bucket holding key, or -1.
func (l *lru) find(key int64) int {
	mask := len(l.index) - 1
	for pos := l.home(key); ; pos = (pos + 1) & mask {
		e := l.index[pos]
		if e == 0 {
			return -1
		}
		if l.nodes[e-1].key == key {
			return pos
		}
	}
}

// place indexes slot under its node's key, which must be absent.
func (l *lru) place(slot int32) {
	mask := len(l.index) - 1
	pos := l.home(l.nodes[slot].key)
	for l.index[pos] != 0 {
		pos = (pos + 1) & mask
	}
	l.index[pos] = slot + 1
}

// remove empties bucket pos, shifting later members of its probe run
// back so every lookup still reaches its key without tombstones.
func (l *lru) remove(pos int) {
	mask := len(l.index) - 1
	for next := (pos + 1) & mask; ; next = (next + 1) & mask {
		e := l.index[next]
		if e == 0 {
			break
		}
		// An entry may fill the hole unless its home lies cyclically
		// in (pos, next].
		if (next-l.home(l.nodes[e-1].key))&mask >= (next-pos)&mask {
			l.index[pos] = e
			pos = next
		}
	}
	l.index[pos] = 0
}

func (l *lru) unlink(slot int32) {
	n := &l.nodes[slot]
	if n.prev == nilSlot {
		l.head = n.next
	} else {
		l.nodes[n.prev].next = n.next
	}
	if n.next == nilSlot {
		l.tail = n.prev
	} else {
		l.nodes[n.next].prev = n.prev
	}
}

func (l *lru) pushFront(slot int32) {
	n := &l.nodes[slot]
	n.prev, n.next = nilSlot, l.head
	if l.head == nilSlot {
		l.tail = slot
	} else {
		l.nodes[l.head].prev = slot
	}
	l.head = slot
}

// growSlab doubles the slab's room, never past capacity.
func (l *lru) growSlab() {
	c := max(2*cap(l.nodes), minSlabGrowth)
	if c > l.capacity {
		c = l.capacity
	}
	nodes := make([]lruNode, len(l.nodes), c)
	copy(nodes, l.nodes)
	l.nodes = nodes
}

// resize rebuilds the index with size buckets (a power of two).
func (l *lru) resize(size int) {
	l.index = make([]int32, size)
	l.shift = 64
	for s := size; s > 1; s >>= 1 {
		l.shift--
	}
	for slot := range l.nodes {
		l.place(int32(slot))
	}
}
