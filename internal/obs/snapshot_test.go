package obs

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
)

// TestSnapshotDocument decodes the /obs document and checks every part
// of it against the sink it was taken from: the progress fraction, the
// counters, the last point of each gauge series, the histogram
// summaries and the retained event count.
func TestSnapshotDocument(t *testing.T) {
	s := NewSink()
	s.SetManifest(NewManifest("websearch", "emb1", 7))
	s.Count("req", 3)
	s.Count("req", 2)
	s.Gauge("util", 1, 0.25)
	s.Gauge("util", 2, 0.75)
	for _, v := range []float64{1, 2, 4} {
		s.Observe("lat", v)
	}
	s.Event("w", 1, F("i", 1))
	s.Event("w", 2)

	raw, err := Snapshot(Progress{Phase: "replay", SimTimeSec: 30, HorizonSec: 120}, s)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Progress Progress                      `json:"progress"`
		Manifest Manifest                      `json:"manifest"`
		Counters map[string]int64              `json:"counters"`
		Gauges   map[string]Point              `json:"gauges"`
		Hists    map[string]map[string]float64 `json:"hists"`
		Events   map[string]int                `json:"events"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("snapshot is not JSON: %v\n%s", err, raw)
	}
	if p := doc.Progress; p.Phase != "replay" || p.SimTimeSec != 30 || p.HorizonSec != 120 || p.Fraction != 0.25 {
		t.Errorf("progress = %+v, want replay at 30/120 s, fraction 0.25", p)
	}
	if m := doc.Manifest; m.Workload != "websearch" || m.System != "emb1" || m.Seed != 7 {
		t.Errorf("manifest = %+v", m)
	}
	if len(doc.Counters) != 1 || doc.Counters["req"] != 5 {
		t.Errorf("counters = %v, want req=5", doc.Counters)
	}
	if len(doc.Gauges) != 1 || doc.Gauges["util"] != (Point{T: 2, V: 0.75}) {
		t.Errorf("gauges = %v, want util's last point {2 0.75}", doc.Gauges)
	}
	h := s.HistByName("lat")
	want := map[string]float64{
		"count": 3, "mean": h.Mean(), "min": 1, "max": 4,
		"p50": h.Quantile(0.50), "p95": h.Quantile(0.95), "p99": h.Quantile(0.99),
	}
	if got := doc.Hists["lat"]; len(doc.Hists) != 1 || len(got) != len(want) {
		t.Errorf("hists = %v, want lat with %v", doc.Hists, want)
	} else {
		for k, v := range want {
			if got[k] != v {
				t.Errorf("hist lat %s = %g, want %g", k, got[k], v)
			}
		}
	}
	if len(doc.Events) != 1 || doc.Events["retained"] != 2 {
		t.Errorf("events = %v, want retained=2", doc.Events)
	}

	// Without a horizon the fraction is unknown and omitted.
	raw, err = Snapshot(Progress{Phase: "search", SimTimeSec: 5}, NewSink())
	if err != nil {
		t.Fatal(err)
	}
	doc.Progress = Progress{}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Progress.Fraction != 0 || doc.Progress.HorizonSec != 0 {
		t.Errorf("open-ended progress = %+v, want no horizon or fraction", doc.Progress)
	}
}

// TestSnapshotOneSinkBytes pins the document of one sink byte for byte,
// so reading several sinks costs a one-sink reader nothing.
func TestSnapshotOneSinkBytes(t *testing.T) {
	s := NewSink()
	s.SetManifest(NewManifest("websearch", "emb1", 7))
	s.Count("req", 3)
	s.Count("req", 2)
	s.Gauge("util", 1, 0.25)
	s.Gauge("util", 2, 0.75)
	for _, v := range []float64{1, 2, 4} {
		s.Observe("lat", v)
	}
	s.Observe("zero", 0)
	s.Event("w", 1, F("i", 1))
	s.Event("w", 2)
	raw, err := Snapshot(Progress{Phase: "replay", SimTimeSec: 30, HorizonSec: 120}, s)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"progress":{"phase":"replay","sim_time_sec":30,"horizon_sec":120,"fraction":0.25},` +
		`"manifest":{"schema":"warehousesim-obs/v1","workload":"websearch","system":"emb1","seed":7,"go_version":"` + runtime.Version() + `","sim_time_sec":0},` +
		`"counters":{"req":5},"gauges":{"util":{"T":2,"V":0.75}},` +
		`"hists":{"lat":{"count":3,"mean":2.3333333333333335,"min":1,"max":4,"p50":2.511886431509583,"p95":4,"p99":4},` +
		`"zero":{"count":1,"mean":0,"min":0,"max":0,"p50":0,"p95":0,"p99":0}},"events":{"retained":2}}`
	if string(raw) != want {
		t.Fatalf("one-sink snapshot\n got %s\nwant %s", raw, want)
	}
}

// TestSnapshotReadsSinksAsOne: a snapshot of several sinks is the
// snapshot of their merge under the first sink's manifest — counters
// add, histograms merge, a series shared by two sinks shows the later
// one's last point, and retained events add — and reading them leaves
// every sink as it was.
func TestSnapshotReadsSinksAsOne(t *testing.T) {
	a, b := NewSink(), NewSink()
	a.SetManifest(NewManifest("websearch", "emb1", 7))
	a.Count("requests", 4)
	b.Count("requests", 3)
	b.Count("qos_violations", 1)
	a.Gauge("util.cpu.e0.b0", 1, 0.5)
	b.Gauge("util.cpu.e1.b0", 1, 0.25)
	a.Gauge("shared", 2, 1)
	b.Gauge("shared", 1, 2)
	for _, v := range []float64{0.01, 0.02, 0.5} {
		a.Observe("latency_sec", v)
	}
	b.Observe("latency_sec", 0.03)
	b.Observe("demand.net_bytes", 1500)
	a.Event("request", 1)
	b.Event("request", 2)
	b.Event("request", 3)
	before := map[*Sink][]byte{}
	for _, s := range []*Sink{a, b} {
		raw, err := Snapshot(Progress{}, s)
		if err != nil {
			t.Fatal(err)
		}
		before[s] = raw
	}

	p := Progress{Phase: "replay", SimTimeSec: 3, HorizonSec: 12}
	got, err := Snapshot(p, a, b)
	if err != nil {
		t.Fatal(err)
	}
	merged := NewSink()
	merged.SetManifest(a.Manifest())
	merged.MergeFrom(a, b)
	want, err := Snapshot(p, merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot of two sinks\n got %s\nwant the merged sink's %s", got, want)
	}
	for _, s := range []*Sink{a, b} {
		if raw, _ := Snapshot(Progress{}, s); !bytes.Equal(raw, before[s]) {
			t.Fatalf("reading the sinks together changed one:\n got %s\nwant %s", raw, before[s])
		}
	}
}
