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
		//whvet:allow maprange counters add per key, so the order the names are visited in cannot reach the result
		for name, c := range p.counters {
			s.Counter(name).Add(c.n)
		}
		//whvet:allow maprange Hist.Merge is bucket-wise addition, so per-key merge order cannot reach the result
		for name, h := range p.hists {
			s.Hist(name).Merge(h)
		}
		//whvet:allow maprange each name's points append in part order whatever order the names are visited in
		for name, src := range p.series {
			dst := s.Series(name)
			dst.Points = append(dst.Points, src.Points...)
		}
	}
	s.mergeEvents(parts)
}

// mergeEvents k-way merges the parts' event rows into s by time, ties
// broken by part order. Each part's layouts and strings are mapped to
// s's ids once, so a row copies as its time, its remapped layout and
// its values, with string values renumbered.
func (s *Sink) mergeEvents(parts []*Sink) {
	rows, vals, nids, nstrs := 0, 0, 0, 0
	for _, p := range parts {
		rows += len(p.rows)
		vals += len(p.vals)
		nids += len(p.layouts) + len(p.strs)
		nstrs = max(nstrs, len(p.strs))
	}
	// ids maps each part's layout ids, then its string indices, to s's:
	// part k's run of them starts at its source's ids.
	srcs, ids := make(mergeHeap, 0, len(parts)), make([]uint32, 0, nids)
	if s.strs == nil {
		s.strs = make([]string, 0, nstrs)
	}
	for k, p := range parts {
		if len(p.rows) > 0 {
			srcs = append(srcs, mergeSource{t: p.rows[0].t, part: k, p: p, ids: len(ids)})
		}
		for i := range p.layouts {
			ids = append(ids, s.adoptLayout(&p.layouts[i]))
		}
		for _, v := range p.strs {
			ids = append(ids, s.internStr(v))
		}
	}
	s.reserveEvents(rows, vals)
	srcs.init()
	for len(srcs) > 0 {
		src := &srcs[0]
		r := src.p.rows[src.next]
		id := ids[src.ids+int(r.layout)]
		l := &s.layouts[id]
		off := len(s.vals)
		s.rows = append(s.rows, eventRow{t: r.t, layout: id, off: uint32(off)})
		s.vals = append(s.vals, src.p.vals[r.off:int(r.off)+len(l.keys)]...)
		strIDs := ids[src.ids+len(src.p.layouts):]
		for j, str := range l.isStr {
			if str {
				s.vals[off+j] = float64(strIDs[int(s.vals[off+j])])
			}
		}
		if src.next++; src.next < len(src.p.rows) {
			src.t = src.p.rows[src.next].t
		} else {
			srcs[0] = srcs[len(srcs)-1]
			srcs = srcs[:len(srcs)-1]
		}
		srcs.down(0)
	}
}

// mergeSource is a part with rows left to merge: t is the time of its
// next row, the row at next.
type mergeSource struct {
	t    float64
	part int // the part's place in the argument order
	p    *Sink
	next int
	ids  int // where the part's run of ids starts
}

// mergeHeap is a binary min-heap of merge sources on (t, part), so the
// earliest next row, ties to the first part, is at the root, and a pick
// costs O(log parts), not a scan of every part.
type mergeHeap []mergeSource

// before reports whether source i's next row merges ahead of source j's.
func (h mergeHeap) before(i, j int) bool {
	return h[i].t < h[j].t || h[i].t == h[j].t && h[i].part < h[j].part
}

// init orders the sources into a heap.
func (h mergeHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// down sifts source i down to its place.
func (h mergeHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h.before(c+1, c) {
			c++
		}
		if !h.before(c, i) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// reserveEvents grows the row and value columns once to hold the rows
// and vals a merge adds, instead of letting them grow their way there.
// Callers add a few records of their own after the fold (SLO episodes,
// one line per fleet rack), so both get a 1/64 headroom: that holds
// them without a regrowth and leaves no more spare than append's growth
// step would.
func (s *Sink) reserveEvents(rows, vals int) {
	rows += rows / 64
	if cap(s.rows)-len(s.rows) < rows {
		s.rows = append(make([]eventRow, 0, len(s.rows)+rows), s.rows...)
	}
	vals += vals / 64
	if cap(s.vals)-len(s.vals) < vals {
		s.vals = append(make([]float64, 0, len(s.vals)+vals), s.vals...)
	}
}
