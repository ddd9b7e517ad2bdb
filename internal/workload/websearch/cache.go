package websearch

import (
	"container/list"
	"sort"
	"strconv"
	"strings"
)

// QueryCache is an LRU result cache keyed by the normalized keyword set
// — the front-end cache every production search service runs. Zipf query
// popularity makes even small caches very effective, which shifts the
// served workload toward the (more expensive) miss tail.
type QueryCache struct {
	capacity int
	order    *list.List
	index    map[string]*list.Element

	hits, misses int64
}

type cacheEntry struct {
	key  string
	hits []ScoredDoc
}

// NewQueryCache builds a cache holding up to capacity result sets.
// capacity <= 0 disables caching (every lookup misses).
func NewQueryCache(capacity int) *QueryCache {
	return &QueryCache{
		capacity: capacity,
		order:    list.New(),
		index:    map[string]*list.Element{},
	}
}

// key normalizes a query: sorted unique term ids.
func (c *QueryCache) key(q Query) string {
	terms := append([]int(nil), q.Terms...)
	sort.Ints(terms)
	var b strings.Builder
	for i, t := range terms {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(t))
	}
	return b.String()
}

// Get returns the cached results for q, if present.
func (c *QueryCache) Get(q Query) ([]ScoredDoc, bool) {
	if c.capacity <= 0 {
		c.misses++
		return nil, false
	}
	el, ok := c.index[c.key(q)]
	if !ok {
		c.misses++
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheEntry).hits, true
}

// Put stores results for q, evicting the least recently used entry.
func (c *QueryCache) Put(q Query, hits []ScoredDoc) {
	if c.capacity <= 0 {
		return
	}
	k := c.key(q)
	if el, ok := c.index[k]; ok {
		el.Value.(*cacheEntry).hits = hits
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.capacity {
		back := c.order.Back()
		delete(c.index, back.Value.(*cacheEntry).key)
		c.order.Remove(back)
	}
	c.index[k] = c.order.PushFront(&cacheEntry{key: k, hits: hits})
}

// HitRate returns hits/(hits+misses).
func (c *QueryCache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
