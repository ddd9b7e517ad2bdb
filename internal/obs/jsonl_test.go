package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"testing"

	"warehousesim/internal/benchgate"
)

// The record structs the sample and event lines were encoded from
// before they were hand-encoded; json.Encoder's output for them is the
// oracle the hand-encoded lines must match byte for byte.
type oracleSample struct {
	Type   string  `json:"type"`
	Series string  `json:"series"`
	T      float64 `json:"t"`
	V      float64 `json:"v"`
}

type oracleEvent struct {
	Type   string         `json:"type"`
	Stream string         `json:"stream"`
	T      float64        `json:"t"`
	Fields map[string]any `json:"f,omitempty"`
}

// oracleJSONL encodes s's manifest, series points and events the way
// WriteJSONL did through encoding/json. s must hold no counters or
// histograms.
func oracleJSONL(s *Sink) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(jsonlManifest{Type: "manifest", Manifest: s.manifest}); err != nil {
		return nil, err
	}
	for _, name := range sortedKeys(s.series) {
		for _, p := range s.series[name].Points {
			if err := enc.Encode(oracleSample{Type: "sample", Series: name, T: p.T, V: p.V}); err != nil {
				return nil, err
			}
		}
	}
	for _, e := range s.Events() {
		rec := oracleEvent{Type: "event", Stream: e.Stream, T: e.T}
		if len(e.Fields) > 0 {
			rec.Fields = make(map[string]any, len(e.Fields))
			for _, f := range e.Fields {
				if f.IsStr {
					rec.Fields[f.Key] = f.Str
				} else {
					rec.Fields[f.Key] = f.Num
				}
			}
		}
		if err := enc.Encode(rec); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// FuzzJSONLRecordMatchesEncodingJSON checks that a sink's sample and
// event lines are exactly what json.Encoder writes for the oracle
// records, or that both fail. The low three bits of shape give the
// event's field count; bit 3+i makes field i a string. Field i takes
// key k0 or k1 alternately, so three or more fields repeat keys, and
// its value is s0/s1 (trimmed by i/2 bytes) or the float with bits
// n0/n1 plus i/2, so repeated keys carry different values.
func FuzzJSONLRecordMatchesEncodingJSON(f *testing.F) {
	bits := math.Float64bits
	type seed struct {
		name   string
		tBits  uint64
		vBits  uint64
		k0, k1 string
		s0, s1 string
		n0, n1 uint64
		shape  uint16
		why    string
	}
	for _, s := range []seed{
		{"request", bits(1.5), bits(0.25), "latency_sec", "station", "ok", "cpu", bits(0.02), bits(1), 2 | 1<<4, "plain"},
		{"a<b>&c", bits(2), bits(3), "<k>", "&amp;", "x<y", "a&b>c", bits(4), bits(5), 2 | 3<<3, "HTML-escaped runes"},
		{"ctl\x00\x1f\t\n\"\\", bits(1), bits(1), "k\x01", "\x7f", "\r\n", "\b\f", 0, 0, 2 | 3<<3, "control bytes and quotes"},
		{"bad\xff\xfe", bits(1), bits(1), "\xc3", "ok", "\xed\xa0\x80", "é\xff", 0, 0, 2 | 3<<3, "invalid UTF-8"},
		{"sep  ", bits(1), bits(1), " ", "k", "line ", "日本", 0, 0, 2 | 3<<3, "U+2028/2029 and non-ASCII"},
		{"zero", 0, 1 << 63, "pos", "neg", "", "", 0, 1 << 63, 2, "±0"},
		{"subnormal", 1, 0x000fffffffffffff, "min", "max", "", "", 1, 0x800fffffffffffff, 2, "subnormals"},
		{"1e-6", bits(1e-6), bits(math.Nextafter(1e-6, 0)), "at", "below", "", "", bits(-1e-6), bits(-math.Nextafter(1e-6, 0)), 2, "the lower 'e' switch"},
		{"1e21", bits(1e21), bits(math.Nextafter(1e21, 0)), "at", "below", "", "", bits(-1e21), bits(-math.Nextafter(1e21, 0)), 2, "the upper 'e' switch"},
		{"exp", bits(1e-7), bits(1.5e-300), "e07", "e300", "", "", bits(1e300), bits(-2.5e-9), 2, "two- and three-digit exponents"},
		{"ints", bits(1 << 53), bits(1<<53 - 1), "big", "neg", "", "", bits(-(1<<53 - 1)), bits(-1 << 53), 2, "integers on both sides of 2^53"},
		{"ints", bits(123456789), bits(1e15), "k", "j", "", "", bits(-7), bits(1e20), 2, "integers in the 'f' form"},
		{"nan", bits(math.NaN()), bits(1), "k", "j", "", "", 0, 0, 0, "NaN time"},
		{"inf", bits(1), bits(math.Inf(1)), "k", "j", "", "", 0, 0, 0, "+Inf sample"},
		{"inf", bits(1), bits(1), "k", "j", "", "", bits(math.Inf(-1)), 0, 1, "-Inf field"},
		{"nanfield", bits(1), bits(1), "k", "j", "", "", 0x7ff8000000000001, 0, 2, "NaN field"},
		{"dup", bits(1), bits(1), "lat", "lat", "a", "b", bits(1), bits(2), 4 | 1<<5, "one key four times, mixed kinds"},
		{"dup", bits(1), bits(1), "b", "a", "x", "y", bits(1), bits(2), 7, "two keys repeated, unsorted"},
		{"empty", bits(3), bits(4), "k", "j", "s", "t", 0, 0, 0, "no fields"},
		{"", 0, 0, "", "", "", "", 0, 0, 3 | 1<<3, "empty names and keys"},
	} {
		f.Add(s.name, s.tBits, s.vBits, s.k0, s.k1, s.s0, s.s1, s.n0, s.n1, s.shape)
	}
	f.Fuzz(func(t *testing.T, name string, tBits, vBits uint64, k0, k1, s0, s1 string, n0, n1 uint64, shape uint16) {
		keys, strs, nums := [2]string{k0, k1}, [2]string{s0, s1}, [2]uint64{n0, n1}
		fields := make([]Field, shape&7)
		for i := range fields {
			k, str := keys[i%2], strs[i%2]
			if shape>>(3+i)&1 == 1 {
				fields[i] = FS(k, str[min(i/2, len(str)):])
			} else {
				fields[i] = F(k, math.Float64frombits(nums[i%2]+uint64(i/2)))
			}
		}
		s := NewSink()
		s.SetManifest(NewManifest("w", "s", 1))
		s.Gauge(name, math.Float64frombits(tBits), math.Float64frombits(vBits))
		s.Event(name, math.Float64frombits(tBits), fields...)

		want, werr := oracleJSONL(s)
		var got bytes.Buffer
		gerr := s.WriteJSONL(&got)
		switch {
		case werr != nil && gerr != nil:
		case werr != nil:
			t.Fatalf("encoding/json failed (%v) but WriteJSONL wrote:\n%s", werr, got.Bytes())
		case gerr != nil:
			t.Fatalf("WriteJSONL failed (%v) but encoding/json wrote:\n%s", gerr, want)
		case !bytes.Equal(got.Bytes(), want):
			t.Fatalf("WriteJSONL differs from encoding/json:\n got %q\nwant %q", got.Bytes(), want)
		}
	})
}

// benchSink records n span-like events of six fields (two of them
// strings), and one gauge point per ten events on each of four series,
// at times and values spanning the 'f' and 'e' float forms.
func benchSink(n int, t0 float64) *Sink {
	s := NewSink()
	s.SetManifest(NewManifest("websearch", "emb1", 1))
	series := []string{"util.cpu", "util.disk", "util.net", "queue.cpu"}
	res := []string{"cpu", "disk", "net"}
	for i := 0; i < n; i++ {
		t := t0 + float64(i)*1e-3
		s.Event("span", t,
			F("id", float64(i)), F("parent", float64(i/3)), F("req", float64(i/6)),
			FS("kind", "service"), FS("res", res[i%3]), F("dur", 1.25e-7*float64(i%97+1)))
		if i%10 == 0 {
			for j, name := range series {
				s.Gauge(name, t, float64(i%7+j)/8)
			}
		}
	}
	return s
}

// BenchmarkSinkWriteJSONL times one JSONL export of a 200-event sink
// to io.Discard. The manifest line's encoding/json state comes from a
// sync.Pool, which -race empties at random, so the op is kept short
// enough for the harness to average that over hundreds of ops.
func BenchmarkSinkWriteJSONL(b *testing.B) {
	s := benchSink(200, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.WriteJSONL(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSinkWriteJSONLChunked times one JSONL export of 20,000
// span events and 50 series to io.Discard, formatted in chunks on
// exportWorkers goroutines: the largest ring of buffers an export builds
// on any machine.
func BenchmarkSinkWriteJSONLChunked(b *testing.B) {
	s := benchSink(20000, 0)
	for j := len(s.series); j < 50; j++ {
		sr := s.Series(fmt.Sprintf("util.extra%02d", j))
		for k := 0; k < 100; k++ {
			sr.Add(float64(k), float64(k%9)/8)
		}
	}
	if err := s.writeJSONL(io.Discard, exportWorkers, exportChunk); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.writeJSONL(io.Discard, exportWorkers, exportChunk); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSinkMergeFrom times folding four 1000-event parts, on
// interleaved clocks, into a fresh sink.
func BenchmarkSinkMergeFrom(b *testing.B) {
	parts := make([]*Sink, 4)
	for i := range parts {
		parts[i] = benchSink(1000, float64(i)*2.5e-4)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewSink().MergeFrom(parts...)
	}
}

// BenchmarkSinkEvent times recording 1000 request-shaped events (three
// numeric fields) and 1000 span-shaped ones (four numeric fields, two
// strings) into a fresh sink, through reused field buffers as the
// emitters pass them.
func BenchmarkSinkEvent(b *testing.B) {
	kinds := []string{"request", "queue", "service"}
	res := []string{"cpu", "disk", "net"}
	var req [3]Field
	var sp [6]Field
	record := func() {
		s := NewSink()
		for i := 0; i < 1000; i++ {
			t := float64(i) * 1e-3
			req = [...]Field{F("latency_sec", 0.01+t/100), FB("qos_violation", i%50 == 0), FB("measured", i >= 100)}
			s.Event("request", t, req[:]...)
			sp = [...]Field{F("id", float64(i+1)), F("parent", float64(i/3)), F("req", float64(i/3)),
				FS("kind", kinds[i%3]), FS("res", res[i%3]), F("dur", 1.25e-4)}
			s.Event("span", t, sp[:]...)
		}
	}
	record()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		record()
	}
}

// TestAllocBounds gates the recording, export and merge benchmarks'
// allocation figures (see benchgate for how a bound is set). Each
// handles hundreds of records or more per op, so one allocation per
// record fails any row; a histogram observation allocates nothing. The
// chunked export's bound is set from its -race figure at GOMAXPROCS 4,
// the highest it reads.
func TestAllocBounds(t *testing.T) {
	benchgate.Check(t, []benchgate.Row{
		{Name: "HistAdd", Bench: BenchmarkHistAdd, MaxBytes: 0, MaxAllocs: 0},
		{Name: "SinkWriteJSONL", Bench: BenchmarkSinkWriteJSONL, MaxBytes: 5422, MaxAllocs: 13},
		{Name: "SinkWriteJSONLChunked", Bench: BenchmarkSinkWriteJSONLChunked, MaxBytes: 296014, MaxAllocs: 43},
		{Name: "SinkMergeFrom", Bench: BenchmarkSinkMergeFrom, MaxBytes: 324415, MaxAllocs: 29},
		{Name: "SinkEvent", Bench: BenchmarkSinkEvent, MaxBytes: 330557, MaxAllocs: 29},
	})
}
