package memblade

import (
	"container/list"
	"testing"

	"warehousesim/internal/stats"
)

// refSim is the reference residency model: the simulator's earlier
// per-policy structures and update rules — a container/list + map LRU, a
// slot slice + map for Random and Clock, and a dirty-page map.
type refSim struct {
	policy   Policy
	capacity int
	resident map[int64]*list.Element
	order    *list.List
	slots    []int64
	index    map[int64]int
	refBits  []bool
	hand     int
	dirty    map[int64]bool
	rng      *stats.RNG
	stats    Stats
}

func newRefSim(cfg Config) *refSim {
	capacity := int(float64(cfg.FootprintPages) * cfg.LocalFraction)
	if capacity < 1 {
		capacity = 1
	}
	return &refSim{
		policy:   cfg.Policy,
		capacity: capacity,
		resident: map[int64]*list.Element{},
		order:    list.New(),
		index:    map[int64]int{},
		dirty:    map[int64]bool{},
		rng:      stats.NewRNG(cfg.Seed),
	}
}

func (s *refSim) access(page int64, write bool) bool {
	s.stats.Accesses++
	hit := false
	switch s.policy {
	case LRU:
		if el, ok := s.resident[page]; ok {
			s.order.MoveToFront(el)
			hit = true
		}
	default:
		if i, ok := s.index[page]; ok {
			if s.policy == Clock {
				s.refBits[i] = true
			}
			hit = true
		}
	}
	if !hit {
		s.stats.Misses++
		s.install(page)
	}
	if write {
		s.dirty[page] = true
	}
	return hit
}

func (s *refSim) install(page int64) {
	switch s.policy {
	case LRU:
		if s.order.Len() >= s.capacity {
			el := s.order.Back()
			victim := el.Value.(int64)
			s.order.Remove(el)
			delete(s.resident, victim)
			s.evict(victim)
		}
		s.resident[page] = s.order.PushFront(page)
	case Random:
		if len(s.slots) >= s.capacity {
			i := s.rng.Intn(len(s.slots))
			victim := s.slots[i]
			delete(s.index, victim)
			s.evict(victim)
			s.slots[i] = page
			s.index[page] = i
			return
		}
		s.index[page] = len(s.slots)
		s.slots = append(s.slots, page)
	case Clock:
		if len(s.slots) >= s.capacity {
			for {
				if s.refBits[s.hand] {
					s.refBits[s.hand] = false
					s.hand = (s.hand + 1) % len(s.slots)
					continue
				}
				victim := s.slots[s.hand]
				delete(s.index, victim)
				s.evict(victim)
				s.slots[s.hand] = page
				s.index[page] = s.hand
				s.refBits[s.hand] = true
				s.hand = (s.hand + 1) % len(s.slots)
				return
			}
		}
		s.index[page] = len(s.slots)
		s.slots = append(s.slots, page)
		s.refBits = append(s.refBits, true)
	}
}

func (s *refSim) evict(victim int64) {
	if s.dirty[victim] {
		s.stats.Writebacks++
		delete(s.dirty, victim)
	}
}

// FuzzMembladePolicies drives Sim and the reference with the same page
// stream under every policy and requires the same hit or miss on every
// access and the same Stats, writebacks included. An op's low seven
// bits pick the page (modulo keys) and its top bit makes it a write;
// the footprint is keys pages, of which localPct percent are local.
func FuzzMembladePolicies(f *testing.F) {
	f.Add(uint8(8), uint8(25), uint64(1), []byte{0, 1, 0x82, 3, 0, 0x84, 5, 1, 6, 0x87, 2, 0})
	f.Add(uint8(3), uint8(100), uint64(2), []byte{0, 1, 2, 0x80, 1, 2, 0x81, 0, 2})
	// Eviction-heavy but skewed, so evicted pages come back: about four
	// pages per slot, low pages hot, a third of the accesses writes.
	r := stats.NewRNG(3)
	heavy := make([]byte, 1024)
	for i := range heavy {
		heavy[i] = byte(r.Intn(1 + r.Intn(64)))
		if i%3 == 0 {
			heavy[i] |= 0x80
		}
	}
	f.Add(uint8(64), uint8(25), uint64(7), heavy)
	f.Fuzz(func(t *testing.T, keys, localPct uint8, seed uint64, ops []byte) {
		footprint := int64(max(keys, 1))
		cfg := Config{FootprintPages: footprint, LocalFraction: float64(1+localPct%100) / 100, Seed: seed}
		for _, pol := range []Policy{LRU, Random, Clock} {
			cfg.Policy = pol
			got, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := newRefSim(cfg)
			if got.Capacity() != want.capacity {
				t.Fatalf("%v: capacity %d, reference %d", pol, got.Capacity(), want.capacity)
			}
			for i, op := range ops {
				page, write := int64(op&0x7f)%footprint, op&0x80 != 0
				if hit, refHit := got.Access(page, write), want.access(page, write); hit != refHit {
					t.Fatalf("%v op %d page %d: hit %v, reference %v", pol, i, page, hit, refHit)
				}
			}
			if st := got.stats; st != want.stats {
				t.Fatalf("%v: stats %+v, reference %+v", pol, st, want.stats)
			}
		}
	})
}
