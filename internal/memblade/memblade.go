// Package memblade implements the paper's ensemble-level memory-sharing
// architecture (§3.4, Figure 4): each server keeps a small local memory
// and swaps 4 KB pages against a PCIe-attached memory blade shared by
// the enclosure.
//
// The package has three parts:
//
//   - a trace-driven two-level memory simulator: the local memory is an
//     exclusive page cache with LRU, random or clock victim selection; a
//     miss swaps the faulting page with a local victim over the blade
//     interconnect (the paper models LRU and random and expects real
//     policies in between);
//
//   - interconnect latency models: a PCIe 2.0 x4 link moves a 4 KB page
//     in ~4 µs; the critical-block-first (CBF) optimization completes the
//     faulting access as soon as the needed block arrives (~0.75 µs);
//
//   - the provisioning cost schemes of Figure 4(c): static partitioning
//     (same total DRAM, 75% moved to the blade) and dynamic provisioning
//     (85% total DRAM), with the blade using slower 24% cheaper devices
//     kept in active power-down mode (>90% DRAM power reduction), plus
//     the per-server PCIe controller share ($10, 1.45 W).
package memblade

import (
	"fmt"

	"warehousesim/internal/lru"
	"warehousesim/internal/obs"
	"warehousesim/internal/obs/span"
	"warehousesim/internal/stats"
	"warehousesim/internal/trace"
)

// Policy selects the local-memory victim-selection policy.
type Policy int

// Replacement policies. The paper evaluates LRU and Random, "expecting
// that an implementable policy would have performance between these
// points"; Clock is such a policy and is included as an ablation.
const (
	LRU Policy = iota
	Random
	Clock
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case Random:
		return "random"
	case Clock:
		return "clock"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config parameterizes the two-level memory simulator.
type Config struct {
	// FootprintPages is the workload's resident page working set.
	FootprintPages int64
	// LocalFraction of the footprint fits in server-local memory (the
	// paper studies 25% and 12.5%).
	LocalFraction float64
	// Policy selects victim selection.
	Policy Policy
	// Seed drives the Random policy.
	Seed uint64
}

// Validate reports nonsensical configurations.
func (c Config) Validate() error {
	switch {
	case c.FootprintPages <= 0:
		return fmt.Errorf("memblade: footprint must be positive")
	case !(c.LocalFraction > 0 && c.LocalFraction <= 1): // NaN fails both
		return fmt.Errorf("memblade: local fraction %g outside (0,1]", c.LocalFraction)
	case c.Policy < LRU || c.Policy > Clock:
		return fmt.Errorf("memblade: unknown policy %v", c.Policy)
	}
	return nil
}

// Stats summarizes a replay.
type Stats struct {
	Accesses int64
	Misses   int64
	// Writebacks counts dirty victim pages written back to the blade
	// (the paper decouples these from the critical path; they are
	// reported for the ablation benches).
	Writebacks int64
	Requests   int64
}

// MissRate returns misses per access.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// MissesPerRequest returns mean page faults per request.
func (s Stats) MissesPerRequest() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Requests)
}

// Sim is the two-level memory simulator.
type Sim struct {
	cfg Config

	// Residency: every policy keeps local memory in one table and only
	// picks the victim slot. Dirty and Clock reference bits are per slot.
	pages lru.Table
	dirty []bool
	ref   []bool     // Clock
	hand  int        // Clock
	rng   *stats.RNG // Random
	stats Stats

	// observability (nil when not instrumented)
	rec         *obs.Sink
	sampleEvery int64
	tracer      *span.Tracer
	evBuf       [2]obs.Field // swap-event scratch; valid only during Sink.Event
}

// New builds a simulator with cold (empty) local memory; its capacity
// is the local share of the footprint, at least one page.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Sim{
		cfg:   cfg,
		pages: lru.New(int(float64(cfg.FootprintPages) * cfg.LocalFraction)),
		rng:   stats.NewRNG(cfg.Seed),
	}, nil
}

// Capacity returns the local-memory capacity in pages.
func (s *Sim) Capacity() int { return s.pages.Cap() }

// Instrument attaches a sink: every access bumps the
// "memblade.accesses" / "memblade.misses" / "memblade.writebacks"
// counters, every miss emits a "memblade.swap" event (the page swapped
// in over the blade interconnect), and the running hit rate is sampled
// into the "memblade.hit_rate" series every sampleEvery accesses
// (0 means 1024) with the access count as the time axis — which makes
// cache warm-up directly visible. A nil sink detaches.
func (s *Sim) Instrument(rec *obs.Sink, sampleEvery int64) {
	s.rec = rec
	if sampleEvery <= 0 {
		sampleEvery = 1024
	}
	s.sampleEvery = sampleEvery
}

// Access references a page; it returns true on a local hit. A miss
// evicts a victim (by the configured policy) and installs the page —
// the exclusive swap of §3.4.
func (s *Sim) Access(page int64, write bool) bool {
	s.stats.Accesses++
	slot := s.pages.Find(page)
	hit := slot >= 0
	switch {
	case !hit:
		s.stats.Misses++
		slot = s.install(page)
	case s.cfg.Policy == LRU:
		s.pages.Touch(slot)
	case s.cfg.Policy == Clock:
		s.ref[slot] = true
	}
	if write {
		s.dirty[slot] = true
	}
	s.observe(page, write, hit)
	if idx := s.stats.Accesses - 1; !hit && s.tracer.Sampled(idx) {
		t := float64(s.stats.Accesses)
		sid := s.tracer.Emit(0, idx, span.KindSwap, PCIeX4().Name,
			t, t+PCIeX4().StallPerMissSec*1e6)
		s.tracer.Emit(sid, idx, span.KindCBF, "",
			t, t+CBF().StallPerMissSec*1e6)
	}
	return hit
}

// InstrumentSpans attaches a causal span tracer: every sampled
// remote-page fault (sampling by access index, the tracer's stride)
// emits a "swap" span — the 4 KB page moving over the PCIe blade link —
// with a nested "cbf" child marking when the critical block arrives and
// the faulting access can resume. The time axis is the access count;
// span durations are the interconnect stalls in microseconds on that
// axis (a swap renders 4 units wide, its CBF child 0.75), which keeps
// replay exports deterministic and Perfetto-loadable. A nil tracer
// detaches.
func (s *Sim) InstrumentSpans(tr *span.Tracer) { s.tracer = tr }

func (s *Sim) observe(page int64, write, hit bool) {
	if s.rec == nil {
		return
	}
	s.rec.Count("memblade.accesses", 1)
	if !hit {
		s.rec.Count("memblade.misses", 1)
		s.evBuf[0] = obs.F("page", float64(page))
		s.evBuf[1] = obs.FB("write", write)
		s.rec.Event("memblade.swap", float64(s.stats.Accesses), s.evBuf[:]...)
	}
	if s.stats.Accesses%s.sampleEvery == 0 {
		hits := s.stats.Accesses - s.stats.Misses
		s.rec.Gauge("memblade.hit_rate", float64(s.stats.Accesses),
			float64(hits)/float64(s.stats.Accesses))
	}
}

// install puts a missing page in local memory and returns its slot:
// the next free slot while memory fills, then the victim's, chosen by
// the policy — the least recently used, a uniform draw, or the first
// unreferenced slot under the clock hand.
func (s *Sim) install(page int64) int {
	if s.pages.Len() < s.pages.Cap() {
		s.dirty = append(s.dirty, false)
		if s.cfg.Policy == Clock {
			s.ref = append(s.ref, true)
		}
		return s.pages.Add(page)
	}
	var slot int
	switch s.cfg.Policy {
	case LRU:
		slot = s.pages.Tail()
	case Random:
		slot = s.rng.Intn(s.pages.Len())
	case Clock:
		for s.ref[s.hand] {
			s.ref[s.hand] = false
			s.hand = (s.hand + 1) % len(s.ref)
		}
		slot = s.hand
		s.ref[slot] = true
		s.hand = (s.hand + 1) % len(s.ref)
	}
	s.pages.Replace(slot, page)
	if s.dirty[slot] {
		s.dirty[slot] = false
		s.stats.Writebacks++
		if s.rec != nil {
			s.rec.Count("memblade.writebacks", 1)
		}
	}
	return slot
}

// Replay runs a page trace through the simulator and returns the stats
// (requests counted from the trace's boundaries).
func Replay(s *Sim, t *trace.PageTrace) Stats {
	for _, a := range t.Accesses {
		s.Access(a.Page, a.Write)
	}
	s.stats.Requests += int64(t.Requests())
	return s.stats
}
