package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
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
