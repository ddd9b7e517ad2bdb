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
	buf    []byte  // the line being built, newline included
	fields []Field // an event's fields in key order
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

// event builds the line of e. Its fields form the "f" object the way
// encoding/json marshals a map: sorted by key, the last of repeated
// keys winning, and no "f" at all when e has no fields.
func (l *jsonlLine) event(e EventRecord) error {
	b := appendJSONString(append(l.buf[:0], `{"type":"event","stream":`...), e.Stream)
	b, err := appendJSONFloat(append(b, `,"t":`...), e.T)
	if err != nil {
		return err
	}
	if len(e.Fields) > 0 {
		l.fields = append(l.fields[:0], e.Fields...)
		slices.SortStableFunc(l.fields, func(x, y Field) int { return strings.Compare(x.Key, y.Key) })
		b = append(b, `,"f":{`...)
		for i, f := range l.fields {
			if i+1 < len(l.fields) && l.fields[i+1].Key == f.Key {
				continue // a later field with this key wins
			}
			b = appendJSONString(b, f.Key)
			b = append(b, ':')
			if f.IsStr {
				b = appendJSONString(b, f.Str)
			} else if b, err = appendJSONFloat(b, f.Num); err != nil {
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
