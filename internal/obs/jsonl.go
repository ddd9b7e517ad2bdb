package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// The bulk of a JSONL export is its series-sample and event lines, so
// those two record kinds are appended by hand into one reused line
// buffer, with no reflection and no map per event. The bytes follow
// encoding/json's rules exactly: FuzzJSONLRecordMatchesEncodingJSON
// holds them to what json.Encoder writes for equivalent record structs.

// jsonlLine builds one sample or event line at a time.
type jsonlLine struct {
	buf []byte // the line being built, newline included
}

// sample builds the line of point p of a series from the series'
// shared prefix, which runs up to the "t" value.
func (l *jsonlLine) sample(prefix []byte, p Point) error {
	b, err := appendJSONFloat(append(l.buf[:0], prefix...), p.T)
	if err != nil {
		return err
	}
	b, err = appendJSONFloat(append(b, `,"v":`...), p.V)
	if err != nil {
		return err
	}
	l.buf = append(b, "}\n"...)
	return nil
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
// in fields.
type lineLayout struct {
	head0, head1     int
	fields0, fields1 int
}

// lineField is one member of the "f" object: the value at index at of
// the event's values, after the `"key":` bytes at buf[key0:key1].
type lineField struct {
	at         int
	str        bool
	key0, key1 int
}

// encodeLines returns the line pieces of s's layouts, built in e's
// buffers where they are large enough.
func encodeLines(s *Sink, e eventLines) eventLines {
	size, nfields := 0, 0
	for i := range s.layouts {
		l := &s.layouts[i]
		size += len(`{"type":"event","stream":"","t":`) + len(l.stream)
		for _, k := range l.keys {
			size += len(k) + 3
		}
		nfields += len(l.keys)
	}
	if cap(e.buf) < size {
		e.buf = make([]byte, 0, size)
	}
	if cap(e.layouts) < len(s.layouts) {
		e.layouts = make([]lineLayout, len(s.layouts))
	}
	if cap(e.fields) < nfields {
		e.fields = make([]lineField, 0, nfields)
	}
	e.buf, e.layouts, e.fields = e.buf[:0], e.layouts[:len(s.layouts)], e.fields[:0]
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
	}
	return e
}

// event builds the line of row r of s, with no "f" at all when the
// event has no fields.
func (l *jsonlLine) event(s *Sink, e *eventLines, r eventRow) error {
	ll := e.layouts[r.layout]
	b, err := appendJSONFloat(append(l.buf[:0], e.buf[ll.head0:ll.head1]...), r.t)
	if err != nil {
		return err
	}
	if ll.fields0 < ll.fields1 {
		vals := s.vals[r.off:]
		b = append(b, `,"f":{`...)
		for _, f := range e.fields[ll.fields0:ll.fields1] {
			b = append(b, e.buf[f.key0:f.key1]...)
			if f.str {
				b = appendJSONString(b, s.strs[int(vals[f.at])])
			} else if b, err = appendJSONFloat(b, vals[f.at]); err != nil {
				return err
			}
			b = append(b, ',')
		}
		b[len(b)-1] = '}'
	}
	l.buf = append(b, "}\n"...)
	return nil
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
