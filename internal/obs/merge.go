package obs

// Merging support for the sharded kernel: each enclosure records into
// its own Sink (owned by the shard its entities live on, so recording
// stays single-threaded), and after the run the per-enclosure sinks
// are folded into one export sink. The fold is deterministic and
// partition-independent: parts are passed in enclosure order, which is
// fixed by the model, not by the partitioning — so the merged export
// is byte-identical at any shard count.

// Merge folds o's observations into h. Both histograms share the
// package-wide fixed bucket layout, so merging is exact.
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.count == 0 {
		return
	}
	hasPos := h.count > h.underflow
	oPos := o.count > o.underflow
	if oPos {
		if !hasPos {
			h.min, h.max = o.min, o.max
		} else {
			if o.min < h.min {
				h.min = o.min
			}
			if o.max > h.max {
				h.max = o.max
			}
		}
	}
	h.count += o.count
	h.sum += o.sum
	h.underflow += o.underflow
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// MergeFrom folds parts into s, in argument order:
//
//   - counters add;
//   - histograms with the same name merge exactly;
//   - series points append in part order (partitioned models give each
//     part distinct series names, so this is a move, not an interleave);
//   - events k-way merge by time, ties broken by part order — each
//     part's events must be in nondecreasing time order (true for
//     anything recorded on a simulated clock).
//
// The manifest is left untouched: the coordinator composes it.
//
// Merging a sink into itself panics: counters would double and the
// event merge would loop over a stream it is appending to.
func (s *Sink) MergeFrom(parts ...*Sink) {
	for _, p := range parts {
		if p == s {
			panic("obs: MergeFrom: sink passed as its own merge part")
		}
	}
	for _, p := range parts {
		for name, v := range p.counters {
			s.counters[name] += v
		}
		//whvet:allow maprange Hist.Merge is bucket-wise addition, so per-key merge order cannot reach the result; the local dst just caches the lazily created entry
		for name, h := range p.hists {
			dst := s.hists[name]
			if dst == nil {
				dst = &Hist{Name: name}
				s.hists[name] = dst
			}
			dst.Merge(h)
		}
		for _, name := range sortedKeys(p.series) {
			src := p.series[name]
			dst := s.series[name]
			if dst == nil {
				dst = &Series{Name: name}
				s.series[name] = dst
			}
			dst.Points = append(dst.Points, src.Points...)
		}
	}
	// K-way time merge of event streams, stable on part order.
	evs := make([][]EventRecord, len(parts))
	total := 0
	for i, p := range parts {
		evs[i] = p.Events()
		total += len(evs[i])
	}
	s.reserveEvents(evs, total)
	idx := make([]int, len(parts))
	for n := 0; n < total; n++ {
		best := -1
		for i := range evs {
			if idx[i] >= len(evs[i]) {
				continue
			}
			if best < 0 || evs[i][idx[i]].T < evs[best][idx[best]].T {
				best = i
			}
		}
		e := evs[best][idx[best]]
		idx[best]++
		s.Event(e.Stream, e.T, e.Fields...)
	}
}

// reserveEvents grows the event slice and the field arena once to hold
// the records a merge of evs adds, instead of letting them grow their
// way there. Callers add a few records of their own after the fold (SLO
// episodes, one line per fleet rack), so both get a 1/64 headroom, the
// arena's capped at one chunk: it holds those without a regrowth and
// leaves no more spare than append's growth step or the arena's
// chunking would.
func (s *Sink) reserveEvents(evs [][]EventRecord, total int) {
	n := total + total/64
	if cap(s.events)-len(s.events) < n {
		s.events = append(make([]EventRecord, 0, len(s.events)+n), s.events...)
	}
	fields := 0
	for _, part := range evs {
		for _, e := range part {
			fields += len(e.Fields)
		}
	}
	fields += min(fields/64, fieldArenaChunk)
	if cap(s.arena)-len(s.arena) < fields {
		s.arena = make([]Field, 0, fields)
	}
}
