package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func demoSink() *Sink {
	s := NewSink()
	m := NewManifest("websearch", "emb1", 7)
	m.SimTimeSec = 150
	m.Config["measure_sec"] = "120"
	m.SetEvents(3000)
	m.WallSec = 1.2345 // must NOT appear in exports
	s.SetManifest(m)
	s.Count("requests", 10)
	s.Count("qos_violations", 1)
	s.Observe("latency_sec", 0.02)
	s.Observe("latency_sec", 0.04)
	s.Gauge("util.cpu", 1, 0.5)
	s.Gauge("util.cpu", 2, 0.625)
	s.Event("request", 1.5, F("latency_sec", 0.02), FB("qos_ok", true))
	s.Event("request", 1.8, F("latency_sec", 0.04), FS("station", "cpu"))
	return s
}

func TestWriteJSONLShape(t *testing.T) {
	var buf bytes.Buffer
	if err := demoSink().WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// manifest + 2 counters + 1 hist + 2 samples + 2 events
	if len(lines) != 8 {
		t.Fatalf("got %d lines, want 8:\n%s", len(lines), buf.String())
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if first["type"] != "manifest" || first["workload"] != "websearch" {
		t.Fatalf("first line is not the manifest: %v", first)
	}
	if _, ok := first["wall_sec"]; ok {
		t.Fatal("wall time leaked into the deterministic export")
	}
	for _, l := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", l, err)
		}
	}
}

func TestWriteJSONLDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := demoSink().WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := demoSink().WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical sinks exported different JSONL bytes")
	}
}

func TestWriteCSVShape(t *testing.T) {
	var buf bytes.Buffer
	if err := demoSink().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "kind,name,t,value,fields" {
		t.Fatalf("header = %q", lines[0])
	}
	// header + manifest + 2 counters + 1 hist + 2 samples + 2 events
	if len(lines) != 9 {
		t.Fatalf("got %d lines, want 9:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "station=cpu") {
		t.Fatal("string event field missing from CSV")
	}
	if strings.Contains(out, "1.2345") {
		t.Fatal("wall time leaked into the CSV export")
	}
}

func TestWriteFilePicksFormatByExtension(t *testing.T) {
	dir := t.TempDir()
	s := demoSink()
	jl := filepath.Join(dir, "run.jsonl")
	cs := filepath.Join(dir, "run.csv")
	if err := s.WriteFile(jl); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteFile(cs); err != nil {
		t.Fatal(err)
	}
	var jlBuf, csBuf bytes.Buffer
	if err := s.WriteJSONL(&jlBuf); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteCSV(&csBuf); err != nil {
		t.Fatal(err)
	}
	checkFile(t, jl, jlBuf.Bytes())
	checkFile(t, cs, csBuf.Bytes())
}

// TestExportFileErrors: a failed create or write comes back as an error
// naming the path and wrapping the cause, and a failed write still
// leaves the file closed with what was written before the failure.
func TestExportFileErrors(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "nope", "run.jsonl")
	if err := ExportFile(missing, func(io.Writer) error { return nil }); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("create in a missing directory: err = %v, want fs.ErrNotExist", err)
	}
	boom := errors.New("boom")
	path := filepath.Join(dir, "run.jsonl")
	err := ExportFile(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), path) {
		t.Errorf("failed write: err = %v, want it to wrap boom and name %s", err, path)
	}
	checkFile(t, path, []byte("partial"))
}

// chunkSink records a sink whose body spans many chunks: 40 series of
// uneven length (two of them empty, one named with runes JSON escapes)
// and 2,000 events over five layouts, with string fields, repeated keys
// and a layout without fields. A NaN goes into series point nanPoint
// (counted across all series in name order) and into event nanEvent;
// -1 leaves either out.
func chunkSink(nanPoint, nanEvent int) *Sink {
	s := NewSink()
	s.SetManifest(NewManifest("websearch", "emb1", 3))
	point := 0
	for j := 0; j < 40; j++ {
		name := fmt.Sprintf("util.s%02d", j)
		if j == 7 {
			name = "q<&>\"\\ "
		}
		sr := s.Series(name)
		for k := 0; k < (j*37)%61 && j%13 != 5; k++ {
			v := float64(k*j%11) / 7
			if point == nanPoint {
				v = math.NaN()
			}
			sr.Add(float64(k)+0.5*float64(j%2), v)
			point++
		}
	}
	res := []string{"cpu", "disk", "net", "a<b"}
	for i := 0; i < 2000; i++ {
		t, v := float64(i)*1.25e-3, 0.01+float64(i%97)*1.3e-7
		if i == nanEvent {
			v = math.NaN()
		}
		switch i % 5 {
		case 0:
			s.Event("request", t, F("latency_sec", v), FB("qos_violation", i%50 == 0), FB("measured", i > 100))
		case 1:
			s.Event("span", t, F("id", float64(i)), FS("kind", "service"), FS("res", res[i%4]), F("dur", v))
		case 2:
			s.Event("dup", t, F("b", v), FS("a", res[i%3]), F("b", 2), FS("a", "last"))
		case 3:
			s.Event("tick", t)
		default:
			s.Event("eé<", t, F("x", v*1e25), F("y", -v*1e-9))
		}
	}
	return s
}

// exportAt writes s's JSONL export through writeJSONL at the given
// worker count and chunk size, returning the bytes written and the
// error.
func exportAt(s *Sink, workers, chunk int) ([]byte, error) {
	var buf bytes.Buffer
	err := s.writeJSONL(&buf, workers, chunk)
	return buf.Bytes(), err
}

// TestWriteJSONLChunksMatchSerial: the export's bytes are the same at
// every worker count and chunk size, and match encoding/json's; with
// counters and histograms in front, still the same as the serial path.
// A default-size export of this sink takes the chunked path.
func TestWriteJSONLChunksMatchSerial(t *testing.T) {
	s := chunkSink(-1, -1)
	if x := newJSONLBody(s); x.lines() < 2*exportChunk {
		t.Fatalf("%d lines: too few to take the chunked path", x.lines())
	}
	want, err := oracleJSONL(s)
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string) {
		t.Helper()
		serial, err := exportAt(s, 1, exportChunk)
		if err != nil {
			t.Fatal(err)
		}
		if want != nil && !bytes.Equal(serial, want) {
			t.Fatalf("%s: serial export differs from encoding/json", what)
		}
		for workers := 1; workers <= 4; workers++ {
			for _, chunk := range []int{1, 3, exportChunk} {
				got, err := exportAt(s, workers, chunk)
				if err != nil {
					t.Fatalf("%s: workers=%d chunk=%d: %v", what, workers, chunk, err)
				}
				if !bytes.Equal(got, serial) {
					t.Fatalf("%s: workers=%d chunk=%d: export differs from the serial one", what, workers, chunk)
				}
			}
		}
	}
	check("events and series")
	s.Count("requests", 2000)
	s.Observe("latency_sec", 0.02)
	s.Observe("latency_sec", 0)
	want = nil // the oracle encodes no counters or histograms
	check("with counters and histograms")
}

// TestWriteJSONLChunkErrors: a NaN in a middle chunk fails the chunked
// export with the serial path's error text, after writing only whole
// lines that precede the bad one; a writer that fails partway returns
// its error, and the formatting goroutines are gone by the time
// writeJSONL returns.
func TestWriteJSONLChunkErrors(t *testing.T) {
	clean, err := exportAt(chunkSink(-1, -1), 1, exportChunk)
	if err != nil {
		t.Fatal(err)
	}
	body := newJSONLBody(chunkSink(-1, -1))
	// cutAt returns where line i of the body starts in the clean export.
	head := bytes.Count(clean, []byte("\n")) - body.lines()
	cutAt := func(i int) int {
		off := 0
		for n := 0; n < head+i; n++ {
			off += bytes.IndexByte(clean[off:], '\n') + 1
		}
		return off
	}
	samples := body.nsamples
	for _, tc := range []struct {
		name               string
		nanPoint, nanEvent int
		line               int
	}{
		{"series", samples / 2, -1, samples / 2},
		{"event", -1, 1005, samples + 1005},
	} {
		s := chunkSink(tc.nanPoint, tc.nanEvent)
		_, serr := exportAt(s, 1, exportChunk)
		if serr == nil {
			t.Fatalf("%s: serial export of a NaN succeeded", tc.name)
		}
		for workers := 1; workers <= 4; workers++ {
			for _, chunk := range []int{1, 3, exportChunk} {
				got, err := exportAt(s, workers, chunk)
				if err == nil || err.Error() != serr.Error() {
					t.Fatalf("%s: workers=%d chunk=%d: error %v, want %q", tc.name, workers, chunk, err, serr)
				}
				if !bytes.HasPrefix(clean, got) || len(got) > cutAt(tc.line) {
					t.Fatalf("%s: workers=%d chunk=%d: wrote %d bytes, want a prefix of the export ending by byte %d, before the bad line",
						tc.name, workers, chunk, len(got), cutAt(tc.line))
				}
			}
		}
	}

	base := runtime.NumGoroutine()
	boom := errors.New("boom")
	for workers := 2; workers <= 4; workers++ {
		for _, chunk := range []int{1, 3, exportChunk} {
			w := &failingWriter{left: len(clean) / 2, err: boom}
			if err := chunkSink(-1, -1).writeJSONL(w, workers, chunk); !errors.Is(err, boom) {
				t.Fatalf("workers=%d chunk=%d: err = %v, want boom", workers, chunk, err)
			}
			if !bytes.HasPrefix(clean, w.buf.Bytes()) {
				t.Fatalf("workers=%d chunk=%d: the bytes written before the failure are not a prefix of the export", workers, chunk)
			}
		}
	}
	// A goroutine that has run its deferred wg.Done may still be
	// exiting, so allow the scheduler a moment to retire it.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed exports, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// failingWriter accepts left bytes, then fails every write with err.
type failingWriter struct {
	buf  bytes.Buffer
	left int
	err  error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.left {
		n, _ := w.buf.Write(p[:w.left])
		w.left = 0
		return n, w.err
	}
	w.left -= len(p)
	return w.buf.Write(p)
}
