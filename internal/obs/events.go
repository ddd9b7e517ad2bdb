package obs

import "slices"

// A Sink keeps its events as pointer-free columns. Every event is one
// 16 B row — its time, its layout and the offset of its first value —
// plus one float64 per field in vals. A layout is the shape an event
// shares with every other event of its stream that has the same keys
// in the same order with the same string-ness; it is interned once, so
// a million request events hold one copy of "request", "latency_sec",
// "qos_violation" and "measured". A string value is stored as the index
// of its entry in the sink's interned string table.
//
// The hot path is a cached hit: the layout of the previous event
// matches by comparing keys that are almost always the emitter's own
// constants.

// EventRecord is one structured event of a stream.
type EventRecord struct {
	Stream string
	T      float64
	Fields []Field
}

// eventRow is one retained event: its time, its layout id and the
// offset of its first value in vals (a sink holds under 2^32 values,
// 32 GiB of them).
type eventRow struct {
	t      float64
	layout uint32
	off    uint32
}

// eventLayout is the interned shape of a run of events. Layouts are
// immutable once made, so merged sinks share their key slices.
type eventLayout struct {
	stream string
	keys   []string
	isStr  []bool
}

// matches reports whether an event on stream with fields has layout l.
func (l *eventLayout) matches(stream string, fields []Field) bool {
	if l.stream != stream || len(l.keys) != len(fields) {
		return false
	}
	for i, f := range fields {
		if l.keys[i] != f.Key || l.isStr[i] != f.IsStr {
			return false
		}
	}
	return true
}

// same reports whether l and o are the same layout.
func (l *eventLayout) same(o *eventLayout) bool {
	return l.stream == o.stream && slices.Equal(l.keys, o.keys) && slices.Equal(l.isStr, o.isStr)
}

// layoutFor returns the id of the layout of an event on stream with
// fields, interning it on first sight. A sink holds a few layouts (2
// to 4 in whsim's and whperf's exports), so a miss on the previous
// event's layout scans them all.
func (s *Sink) layoutFor(stream string, fields []Field) uint32 {
	if len(s.layouts) > 0 && s.layouts[s.lastLayout].matches(stream, fields) {
		return s.lastLayout
	}
	for id := range s.layouts {
		if s.layouts[id].matches(stream, fields) {
			s.lastLayout = uint32(id)
			return s.lastLayout
		}
	}
	l := eventLayout{stream: stream, keys: make([]string, len(fields)), isStr: make([]bool, len(fields))}
	for i, f := range fields {
		l.keys[i], l.isStr[i] = f.Key, f.IsStr
	}
	s.lastLayout = uint32(len(s.layouts))
	s.layouts = append(s.layouts, l)
	return s.lastLayout
}

// adoptLayout returns s's id for another sink's layout l.
func (s *Sink) adoptLayout(l *eventLayout) uint32 {
	for id := range s.layouts {
		if s.layouts[id].same(l) {
			return uint32(id)
		}
	}
	s.layouts = append(s.layouts, *l)
	return uint32(len(s.layouts) - 1)
}

// internStr returns the index of v in the string table.
func (s *Sink) internStr(v string) uint32 {
	if id, ok := s.strIDs[v]; ok {
		return id
	}
	if s.strIDs == nil {
		s.strIDs = make(map[string]uint32)
	}
	id := uint32(len(s.strs))
	s.strs = append(s.strs, v)
	s.strIDs[v] = id
	return id
}

// Event appends a structured record at time t to the named stream.
// The fields slice is valid only during the call: hot paths pass a
// reused scratch buffer, and the sink copies the values into a row over
// an interned layout of the stream and keys, one float64 per field. A
// numeric field keeps only its key and Num, a string field only its key
// and Str, as an index into an interned string table.
func (s *Sink) Event(stream string, t float64, fields ...Field) {
	id := s.layoutFor(stream, fields)
	if len(s.rows) == cap(s.rows) {
		s.rows = regrow(s.rows, 1, 64)
	}
	if cap(s.vals)-len(s.vals) < len(fields) {
		s.vals = regrow(s.vals, len(fields), 256)
	}
	s.rows = append(s.rows, eventRow{t: t, layout: id, off: uint32(len(s.vals))})
	for _, f := range fields {
		v := f.Num
		if f.IsStr {
			v = float64(s.internStr(f.Str))
		}
		s.vals = append(s.vals, v)
	}
}

// regrow returns a copy of xs with room for n more elements: twice its
// capacity, or more if n needs it, and never less than least. Doubling
// from a floor keeps a long run's columns to a few dozen allocations.
func regrow[T any](xs []T, n, least int) []T {
	return append(make([]T, 0, max(2*cap(xs), len(xs)+n, least)), xs...)
}

// appendFields appends row r's fields to buf.
func (s *Sink) appendFields(buf []Field, r eventRow) []Field {
	l := &s.layouts[r.layout]
	vals := s.vals[r.off : int(r.off)+len(l.keys)]
	for i, key := range l.keys {
		if l.isStr[i] {
			buf = append(buf, Field{Key: key, Str: s.strs[int(vals[i])], IsStr: true})
		} else {
			buf = append(buf, Field{Key: key, Num: vals[i]})
		}
	}
	return buf
}

// EachEvent calls fn with every retained event in emission order. The
// record's Fields live in one scratch buffer reused for every event, so
// they are valid only during the call; copy what must outlive it.
func (s *Sink) EachEvent(fn func(EventRecord)) {
	var buf []Field
	for _, r := range s.rows {
		buf = s.appendFields(buf[:0], r)
		fn(EventRecord{Stream: s.layouts[r.layout].stream, T: r.t, Fields: buf})
	}
}

// Events returns a copy of every retained event in emission order. It
// builds one record per event; walk the events with EachEvent instead
// where the records need not outlive the walk.
//
//whvet:allow testonly cmd/whperf's probes count and read recorded events through it
func (s *Sink) Events() []EventRecord {
	out := make([]EventRecord, len(s.rows))
	fields := make([]Field, 0, len(s.vals))
	for i, r := range s.rows {
		start := len(fields)
		fields = s.appendFields(fields, r)
		out[i] = EventRecord{Stream: s.layouts[r.layout].stream, T: r.t}
		if n := len(fields); n > start {
			out[i].Fields = fields[start:n:n]
		}
	}
	return out
}

// NumEvents returns the number of retained event records.
func (s *Sink) NumEvents() int { return len(s.rows) }

// EventCount returns the number of retained records in a stream.
//
//whvet:allow testonly cross-package test accessor: tests in six packages read recorded streams through it
func (s *Sink) EventCount(stream string) int {
	n := 0
	for _, r := range s.rows {
		if s.layouts[r.layout].stream == stream {
			n++
		}
	}
	return n
}
