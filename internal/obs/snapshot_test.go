package obs

import (
	"encoding/json"
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

	raw, err := s.Snapshot(Progress{Phase: "replay", SimTimeSec: 30, HorizonSec: 120})
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
	raw, err = NewSink().Snapshot(Progress{Phase: "search", SimTimeSec: 5})
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
