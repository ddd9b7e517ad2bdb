package span

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"warehousesim/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenSink builds a tiny fixed span set covering every record shape
// the exporter emits: nested spans, a swap with CBF detail, and an
// empty resource name. The root comes first, as the simulators emit it
// at completion.
func goldenSink() *obs.Sink {
	sink := obs.NewSink()
	man := obs.NewManifest("websearch", "emb1", 7)
	man.GoVersion = "gotest" // pin: golden must not move with toolchains
	sink.SetManifest(man)

	tr := NewTracer(sink, 1)
	root := tr.Emit(0, 0, KindRequest, "request", 0.001, 0.004)
	tr.Emit(root, 0, KindQueue, "cpu", 0.001, 0.0015)
	svc := tr.Emit(root, 0, KindService, "cpu", 0.0015, 0.004)
	swap := tr.Emit(svc, 0, KindSwap, "memblade", 0.0015, 0.002)
	tr.Emit(swap, 0, KindCBF, "", 0.0015, 0.00155)
	return sink
}

func TestWriteTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, goldenSink()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "perfetto_golden.json")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace output differs from %s:\ngot:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

func TestWriteTraceIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, goldenSink()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		OtherData       struct {
			Schema   string `json:"schema"`
			Workload string `json:"workload"`
			Seed     string `json:"seed"`
		} `json:"otherData"`
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int64   `json:"tid"`
			Args map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter produced invalid JSON: %v", err)
	}
	if doc.OtherData.Schema != "warehousesim-trace/v1" {
		t.Errorf("schema = %q", doc.OtherData.Schema)
	}
	// Metadata event plus the five spans of goldenSink.
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("got %d trace events, want 6", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Ph != "M" {
		t.Errorf("first event is %q, want process_name metadata", doc.TraceEvents[0].Ph)
	}
	for _, e := range doc.TraceEvents[1:] {
		if e.Ph != "X" {
			t.Errorf("span event ph = %q, want X", e.Ph)
		}
		if e.Dur < 0 {
			t.Errorf("span %v has negative dur", e.Args["id"])
		}
	}
	// ts/dur are microseconds: the root span is 3 ms = 3000 us.
	if root := doc.TraceEvents[1]; root.Name != "request" || root.Dur != 3000 {
		t.Errorf("root = %q lasting %g us, want request lasting 3000", root.Name, root.Dur)
	}
}

func TestWriteTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := WriteTrace(&a, goldenSink()); err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(&b, goldenSink()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two identical sinks exported different traces")
	}
}

// TestFileExportsMatchWriters: the file exporters write exactly what
// the stream writers do, and report a path they cannot create.
func TestFileExportsMatchWriters(t *testing.T) {
	sink := goldenSink()
	a := Analyze(sink)
	var trace, csv bytes.Buffer
	if err := WriteTrace(&trace, sink); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name  string
		write func(string) error
		want  []byte
	}{
		{"trace.json", func(p string) error { return WriteTraceFile(p, sink) }, trace.Bytes()},
		{"attr.csv", a.WriteCSVFile, csv.Bytes()},
	} {
		path := filepath.Join(dir, tc.name)
		if err := tc.write(path); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, tc.want) {
			t.Errorf("%s differs from the stream writer's bytes", tc.name)
		}
		if err := tc.write(filepath.Join(dir, "missing", tc.name)); err == nil {
			t.Errorf("%s: writing under a missing directory succeeded", tc.name)
		}
	}
}
