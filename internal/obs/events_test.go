package obs

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// refMerge is the stable k-way time merge MergeFrom performed over
// whole event records before the sink kept rows: repeatedly take the
// earliest head, ties going to the lowest part.
func refMerge(parts [][]EventRecord) []EventRecord {
	var out []EventRecord
	idx := make([]int, len(parts))
	for {
		best := -1
		for i := range parts {
			if idx[i] >= len(parts[i]) {
				continue
			}
			if best < 0 || parts[i][idx[i]].T < parts[best][idx[best]].T {
				best = i
			}
		}
		if best < 0 {
			return out
		}
		out = append(out, parts[best][idx[best]])
		idx[best]++
	}
}

// refEventLine appends the JSONL line of e the way WriteJSONL encoded
// one record at a time before it kept per-layout encodings: its fields
// form the "f" object sorted by key, the last of repeated keys winning,
// and no "f" at all when e has no fields.
func refEventLine(b []byte, e EventRecord) ([]byte, error) {
	b = appendJSONString(append(b, `{"type":"event","stream":`...), e.Stream)
	b, err := appendJSONFloat(append(b, `,"t":`...), e.T)
	if err != nil {
		return b, err
	}
	if len(e.Fields) > 0 {
		fields := slices.Clone(e.Fields)
		slices.SortStableFunc(fields, func(x, y Field) int { return strings.Compare(x.Key, y.Key) })
		b = append(b, `,"f":{`...)
		for i, f := range fields {
			if i+1 < len(fields) && fields[i+1].Key == f.Key {
				continue
			}
			b = append(appendJSONString(b, f.Key), ':')
			if f.IsStr {
				b = appendJSONString(b, f.Str)
			} else if b, err = appendJSONFloat(b, f.Num); err != nil {
				return b, err
			}
			b = append(b, ',')
		}
		b[len(b)-1] = '}'
	}
	return append(b, "}\n"...), nil
}

// refExports returns what WriteJSONL and WriteCSV write for a sink with
// manifest m and the events evs and nothing else: an event-free sink's
// export followed by each record through the per-record encoders.
func refExports(m Manifest, evs []EventRecord) (jsonl []byte, jsonlErr error, csvOut []byte) {
	empty := NewSink()
	empty.SetManifest(m)
	var jb, cb bytes.Buffer
	if err := empty.WriteJSONL(&jb); err != nil {
		panic(err)
	}
	if err := empty.WriteCSV(&cb); err != nil {
		panic(err)
	}
	cw := csv.NewWriter(&cb)
	line := []byte(nil)
	for _, e := range evs {
		_ = cw.Write([]string{"event", e.Stream, strconv.FormatFloat(e.T, 'g', -1, 64), "", packFields(e.Fields)})
		if jsonlErr != nil {
			continue
		}
		var err error
		if line, err = refEventLine(line[:0], e); err != nil {
			jsonlErr = fmt.Errorf("%q event at t=%v: %w", e.Stream, e.T, err)
		}
		jb.Write(line)
	}
	cw.Flush()
	return jb.Bytes(), jsonlErr, cb.Bytes()
}

// canonical is the field a sink reads back for f: a numeric field keeps
// its key and Num, a string field its key and Str.
func canonical(f Field) Field {
	if f.IsStr {
		return FS(f.Key, f.Str)
	}
	return F(f.Key, f.Num)
}

// sameRecords reports where got and want first differ, comparing
// floats bit for bit so -0 and NaN payloads count.
func sameRecords(got, want []EventRecord) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d records, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.Stream != w.Stream || math.Float64bits(g.T) != math.Float64bits(w.T) || len(g.Fields) != len(w.Fields) {
			return fmt.Errorf("record %d = %q t=%v with %d fields, want %q t=%v with %d",
				i, g.Stream, g.T, len(g.Fields), w.Stream, w.T, len(w.Fields))
		}
		for j, f := range g.Fields {
			cf := canonical(w.Fields[j])
			if f.Key != cf.Key || f.IsStr != cf.IsStr || f.Str != cf.Str || math.Float64bits(f.Num) != math.Float64bits(cf.Num) {
				return fmt.Errorf("record %d field %d = %+v, want %+v", i, j, f, cf)
			}
		}
	}
	return nil
}

// FuzzSinkEvents records fuzzed event sequences across one to four
// part sinks and holds the sink to the record-at-a-time model it
// replaced: reading events back gives the canonical input in order,
// MergeFrom (into a sink that already holds events) matches refMerge,
// and the JSONL and CSV exports match the per-record encoders.
//
// prog drives the recording: its first byte picks the part count, then
// each event takes a part, a stream, a time step and a field count
// byte, and each field a key and a value byte. Streams, keys and string
// values come from pools that include the fuzzed strings, so
// layouts and strings repeat across events and parts; numeric values
// include -0, subnormals, the float extremes and (rarely) NaN and ±Inf.
func FuzzSinkEvents(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 3, 0, 1, 1, 2, 2, 3, 1, 1, 2, 4, 0, 0, 0, 0, 2, 1, 5, 6, 3, 0, 2, 7, 8}, "ext", "k", "v")
	f.Add([]byte{1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 6, 0, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, "日本", "ключ", "é\xff")
	f.Add([]byte{4, 0, 2, 2, 1, 1, 2, 1, 2, 1, 2, 2, 3, 2, 2, 1, 3, 1, 4, 3, 3, 2, 12, 13}, "", "", "")
	f.Add([]byte{2, 1, 3, 4, 2, 0, 14, 0, 15, 0, 3, 4, 2, 1, 9, 1, 10}, "a<b>&c", "\x00", " ")
	// Every pool string once, as a string field beside a numeric one,
	// spread over two parts, so the merge remaps two full string tables.
	strSeed := []byte{1}
	for i := 0; i < 24; i++ {
		strSeed = append(strSeed, byte(i), byte(i), byte(i), 2, 0x80|byte(16+i%12)<<3|byte(i%5), byte(i%5), byte(i))
	}
	f.Add(strSeed, "span", "kind", "service")
	f.Fuzz(func(t *testing.T, prog []byte, s0, k0, v0 string) {
		if len(prog) == 0 {
			return
		}
		streams := []string{"request", "span", s0, "日本"}
		keys := []string{"a", "b", k0, "ключ", ""}
		strs := []string{"", "x<y&z", v0, "é\xff", "cpu", "disk", "net", "san", "memblade", "flash", v0 + "!", "\u2028"}
		nums := []float64{0, math.Copysign(0, -1), 1, -1.5, 1e-7, 1e21, math.MaxFloat64, -math.MaxFloat64,
			math.SmallestNonzeroFloat64, 123456789, 1 << 53, 0.1, 2.5e-300, math.NaN(), math.Inf(1), math.Inf(-1)}
		steps := []float64{0, 0, 0.5, 1e-9, 1, 1e6}

		nparts := 1 + int(prog[0])%4
		parts := make([]*Sink, nparts)
		records := make([][]EventRecord, nparts)
		clock := make([]float64, nparts)
		for i := range parts {
			parts[i] = NewSink()
		}
		next := func() byte {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return b
		}
		prog = prog[1:]
		scratch := make([]Field, 0, 8)
		for len(prog) > 0 {
			p := int(next()) % nparts
			stream := streams[int(next())%len(streams)]
			clock[p] += steps[int(next())%len(steps)]
			shape := next()
			// The same scratch buffer carries every event's fields, and
			// each field carries a stray value of the other kind, which
			// the sink must drop.
			scratch = scratch[:0]
			for i := 0; i < int(shape)%6; i++ {
				kv := next()
				key := keys[int(kv)%len(keys)]
				if kv&0x80 != 0 {
					scratch = append(scratch, Field{Key: key, Str: strs[int(kv>>3)%len(strs)], Num: 7, IsStr: true})
				} else {
					scratch = append(scratch, Field{Key: key, Num: nums[int(next())%len(nums)], Str: "stray"})
				}
			}
			parts[p].Event(stream, clock[p], scratch...)
			rec := EventRecord{Stream: stream, T: clock[p]}
			for _, fl := range scratch {
				rec.Fields = append(rec.Fields, canonical(fl))
			}
			records[p] = append(records[p], rec)
		}

		for i, p := range parts {
			if err := sameRecords(p.Events(), records[i]); err != nil {
				t.Fatalf("part %d Events: %v", i, err)
			}
			var walked []EventRecord
			p.EachEvent(func(e EventRecord) {
				e.Fields = slices.Clone(e.Fields)
				walked = append(walked, e)
			})
			if err := sameRecords(walked, records[i]); err != nil {
				t.Fatalf("part %d EachEvent: %v", i, err)
			}
			if p.NumEvents() != len(records[i]) {
				t.Fatalf("part %d NumEvents = %d, want %d", i, p.NumEvents(), len(records[i]))
			}
		}

		// The merge target already holds the first part's leading
		// records, so the parts' layouts and strings are remapped onto
		// tables that are not empty.
		out := NewSink()
		prior := records[0][:min(3, len(records[0]))]
		for _, e := range prior {
			out.Event(e.Stream, e.T, e.Fields...)
		}
		out.MergeFrom(parts...)
		want := append(slices.Clone(prior), refMerge(records)...)
		if err := sameRecords(out.Events(), want); err != nil {
			t.Fatalf("MergeFrom: %v", err)
		}

		m := NewManifest("w", "s", 1)
		out.SetManifest(m)
		wantJSONL, wantErr, wantCSV := refExports(m, want)
		var gotJSONL, gotCSV bytes.Buffer
		gotErr := out.WriteJSONL(&gotJSONL)
		switch {
		case wantErr != nil && gotErr != nil:
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("WriteJSONL error %q, want %q", gotErr, wantErr)
			}
		case wantErr != nil:
			t.Fatalf("WriteJSONL succeeded, want error %q", wantErr)
		case gotErr != nil:
			t.Fatalf("WriteJSONL: %v", gotErr)
		case !bytes.Equal(gotJSONL.Bytes(), wantJSONL):
			t.Fatalf("WriteJSONL differs:\n got %q\nwant %q", gotJSONL.Bytes(), wantJSONL)
		}
		if err := out.WriteCSV(&gotCSV); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotCSV.Bytes(), wantCSV) {
			t.Fatalf("WriteCSV differs:\n got %q\nwant %q", gotCSV.Bytes(), wantCSV)
		}
	})
}
