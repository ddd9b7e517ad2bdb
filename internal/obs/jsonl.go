package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// The bulk of a JSONL export is its series-sample and event lines, so
// those two record kinds are appended by hand straight into the export's
// chunk buffers, with no reflection and no map per event. The bytes
// follow encoding/json's rules exactly: FuzzJSONLRecordMatchesEncodingJSON
// holds them to what json.Encoder writes for equivalent record structs.

// jsonlBody is the sample and event lines of one export, in export
// order: the points of every series, series sorted by name, then every
// event row. Formatting a line reads the sink and writes nothing but the
// buffer it appends to, so any run of lines can be formatted on any
// goroutine.
type jsonlBody struct {
	s        *Sink
	series   []seriesLines // sorted by name
	nsamples int           // lines of series points, before the events
	events   eventLines
	// est is the mean size of a sample line or of an event line,
	// whichever is larger, with floatEst bytes per number. A chunk of
	// est*chunk bytes holds chunk lines of either kind, bar a run of
	// unusually long ones.
	est int
}

// seriesLines places a series in the body: its points are the lines
// from first on.
type seriesLines struct {
	sr    *Series
	first int
}

// floatEst is the bytes a number is taken to need when buffers are
// sized: a float64's shortest form is at most 17 digits, a point, a
// sign and an exponent, and many recorded values are shorter.
const floatEst = 20

// newJSONLBody returns s's body.
func newJSONLBody(s *Sink) jsonlBody {
	x := jsonlBody{s: s, series: make([]seriesLines, 0, len(s.series)), events: encodeLines(s)}
	//whvet:allow maprange the series are sorted by name below, before any line is placed
	for _, sr := range s.series {
		x.series = append(x.series, seriesLines{sr: sr})
	}
	slices.SortFunc(x.series, func(a, b seriesLines) int { return strings.Compare(a.sr.Name, b.sr.Name) })
	samples, events := 0, 0
	for i := range x.series {
		sl := &x.series[i]
		sl.first = x.nsamples
		x.nsamples += len(sl.sr.Points)
		samples += len(sl.sr.Points) * (len(`{"type":"sample","series":"","t":,"v":}`) + len(sl.sr.Name) + 2*floatEst + 1)
	}
	for _, r := range s.rows {
		events += x.events.layouts[r.layout].est
	}
	x.est = max(1, ceilDiv(samples, x.nsamples), ceilDiv(events, len(s.rows)))
	return x
}

// ceilDiv returns a/b rounded up, or 0 when b is 0.
func ceilDiv(a, b int) int {
	if b == 0 {
		return 0
	}
	return (a + b - 1) / b
}

// lines returns the number of lines in the body.
func (x *jsonlBody) lines() int { return x.nsamples + len(x.s.rows) }

// appendLines appends lines [lo, hi) of the body to b. On an error it
// returns b with the failed line partly appended.
func (x *jsonlBody) appendLines(b []byte, lo, hi int) ([]byte, error) {
	var err error
	if lo < x.nsamples {
		// The series holding line lo is the last to start at or before it.
		j := sort.Search(len(x.series), func(j int) bool { return x.series[j].first > lo }) - 1
		var scratch [128]byte
		for ; lo < min(hi, x.nsamples); j++ {
			sl := x.series[j]
			// Every point of a series shares its line up to the time.
			prefix := appendJSONString(append(scratch[:0], `{"type":"sample","series":`...), sl.sr.Name)
			prefix = append(prefix, `,"t":`...)
			end := min(hi, sl.first+len(sl.sr.Points))
			for _, p := range sl.sr.Points[lo-sl.first : end-sl.first] {
				if b, err = appendSample(b, prefix, p); err != nil {
					return b, fmt.Errorf("series %q point at t=%v: %w", sl.sr.Name, p.T, err)
				}
			}
			lo = end
		}
	}
	for _, r := range x.s.rows[max(lo-x.nsamples, 0):max(hi-x.nsamples, 0)] {
		if b, err = x.events.appendEvent(b, x.s, r); err != nil {
			return b, fmt.Errorf("%q event at t=%v: %w", x.s.layouts[r.layout].stream, r.t, err)
		}
	}
	return b, nil
}

// appendSample appends the line of point p of a series, from the
// series' shared prefix, which runs up to the "t" value.
func appendSample(b, prefix []byte, p Point) ([]byte, error) {
	b, err := appendJSONFloat(append(b, prefix...), p.T)
	if err != nil {
		return b, err
	}
	b, err = appendJSONFloat(append(b, `,"v":`...), p.V)
	if err != nil {
		return b, err
	}
	return append(b, "}\n"...), nil
}

// eventLines holds what the event lines of each layout of a sink share,
// encoded once per export: the line up to the "t" value, and the fields
// of the "f" object in the order encoding/json marshals a map — sorted
// by key, the last of repeated keys winning. The byte pieces live back
// to back in buf.
type eventLines struct {
	buf     []byte
	layouts []lineLayout
	fields  []lineField
}

// lineLayout locates one layout's line head in buf and its "f" fields
// in fields. est is the size of its lines, counting their fixed bytes
// exactly, floatEst bytes per number and the longest interned string,
// unescaped, per string.
type lineLayout struct {
	head0, head1     int
	fields0, fields1 int
	est              int
}

// lineField is one member of the "f" object: the value at index at of
// the event's values, after the `"key":` bytes at buf[key0:key1].
type lineField struct {
	at         int
	str        bool
	key0, key1 int
}

// encodeLines returns the line pieces of s's layouts.
func encodeLines(s *Sink) eventLines {
	size, nfields := 0, 0
	for i := range s.layouts {
		l := &s.layouts[i]
		size += len(`{"type":"event","stream":"","t":`) + len(l.stream)
		for _, k := range l.keys {
			size += len(k) + 3
		}
		nfields += len(l.keys)
	}
	e := eventLines{
		buf:     make([]byte, 0, size),
		layouts: make([]lineLayout, len(s.layouts)),
		fields:  make([]lineField, 0, nfields),
	}
	str := 0
	for _, v := range s.strs {
		str = max(str, len(v)+2)
	}
	for i := range s.layouts {
		l := &s.layouts[i]
		ll := &e.layouts[i]
		ll.head0 = len(e.buf)
		e.buf = appendJSONString(append(e.buf, `{"type":"event","stream":`...), l.stream)
		e.buf = append(e.buf, `,"t":`...)
		ll.head1 = len(e.buf)
		ll.fields0 = len(e.fields)
		for j := range l.keys {
			e.fields = append(e.fields, lineField{at: j})
		}
		order := e.fields[ll.fields0:]
		slices.SortStableFunc(order, func(x, y lineField) int { return strings.Compare(l.keys[x.at], l.keys[y.at]) })
		kept := ll.fields0
		for k, f := range order {
			if k+1 < len(order) && l.keys[order[k+1].at] == l.keys[f.at] {
				continue // a later field with this key wins
			}
			f.str, f.key0 = l.isStr[f.at], len(e.buf)
			e.buf = append(appendJSONString(e.buf, l.keys[f.at]), ':')
			f.key1 = len(e.buf)
			e.fields[kept] = f
			kept++
		}
		e.fields = e.fields[:kept]
		ll.fields1 = kept
		ll.est = len(e.buf) - ll.head0 + floatEst + len(`,"f":{}}`) + 1
		for _, f := range e.fields[ll.fields0:ll.fields1] {
			if f.str {
				ll.est += str + 1
			} else {
				ll.est += floatEst + 1
			}
		}
	}
	return e
}

// appendEvent appends the line of row r of s, with no "f" at all when
// the event has no fields.
func (e *eventLines) appendEvent(b []byte, s *Sink, r eventRow) ([]byte, error) {
	ll := e.layouts[r.layout]
	b, err := appendJSONFloat(append(b, e.buf[ll.head0:ll.head1]...), r.t)
	if err != nil {
		return b, err
	}
	if ll.fields0 < ll.fields1 {
		vals := s.vals[r.off:]
		b = append(b, `,"f":{`...)
		for _, f := range e.fields[ll.fields0:ll.fields1] {
			b = append(b, e.buf[f.key0:f.key1]...)
			if f.str {
				b = appendJSONString(b, s.strs[int(vals[f.at])])
			} else if b, err = appendJSONFloat(b, vals[f.at]); err != nil {
				return b, err
			}
			b = append(b, ',')
		}
		b[len(b)-1] = '}'
	}
	return append(b, "}\n"...), nil
}

// appendJSONString appends s as encoding/json quotes it with HTML
// escaping on. Printable ASCII other than "\<>& copies through as is;
// any other string takes json.Marshal's path.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat appends f as encoding/json formats a float64: the
// shortest 'f' form, or the 'e' form with a one-digit negative exponent
// written e-7 rather than e-07 when |f| is below 1e-6 or at least 1e21.
// Integers below 2^53 take strconv.AppendInt, which writes the same
// digits faster. NaN and ±Inf have no JSON form and fail, as they do in
// encoding/json.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, fmt.Errorf("unsupported value %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	if f == math.Trunc(f) && math.Abs(f) < 1<<53 && (f != 0 || !math.Signbit(f)) {
		// Below 2^53 an integer's digits are its shortest form; -0
		// keeps its sign below.
		return strconv.AppendInt(b, int64(f), 10), nil
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
