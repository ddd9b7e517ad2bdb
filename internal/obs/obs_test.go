package obs

import (
	"math"
	"testing"
)

func TestSinkCounters(t *testing.T) {
	s := NewSink()
	s.Count("a", 2)
	s.Count("a", 3)
	s.Count("b", 1)
	if got := s.CounterValue("a"); got != 5 {
		t.Fatalf("counter a = %d, want 5", got)
	}
	if got := s.CounterValue("missing"); got != 0 {
		t.Fatalf("missing counter = %d, want 0", got)
	}
}

func TestSinkSeries(t *testing.T) {
	s := NewSink()
	s.Gauge("util.cpu", 1, 0.5)
	s.Gauge("util.cpu", 2, 0.75)
	s.Gauge("qlen.cpu", 1, 3)
	sr := s.SeriesByName("util.cpu")
	if sr == nil || len(sr.Points) != 2 {
		t.Fatalf("util.cpu series = %+v, want 2 points", sr)
	}
	if sr.Points[1] != (Point{T: 2, V: 0.75}) {
		t.Fatalf("second point = %+v", sr.Points[1])
	}
	names := s.SeriesNames()
	if len(names) != 2 || names[0] != "qlen.cpu" || names[1] != "util.cpu" {
		t.Fatalf("series names = %v, want sorted [qlen.cpu util.cpu]", names)
	}
}

func TestHistStatistics(t *testing.T) {
	h := &Hist{Name: "lat"}
	for _, v := range []float64{0.001, 0.01, 0.01, 0.1, 1} {
		h.Add(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Mean(), (0.001+0.01+0.01+0.1+1)/5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean = %g, want %g", got, want)
	}
	if h.Min() != 0.001 || h.Max() != 1 {
		t.Fatalf("min/max = %g/%g", h.Min(), h.Max())
	}
	// Quantiles are bucket upper bounds: p50 must cover the 0.01 mass
	// without exceeding the next decade.
	if q := h.Quantile(0.5); q < 0.01 || q > 0.02 {
		t.Fatalf("p50 = %g, want within [0.01, 0.02]", q)
	}
	if q := h.Quantile(1); q != 1 {
		t.Fatalf("p100 = %g, want clamped to max", q)
	}
}

func TestHistUnderflow(t *testing.T) {
	h := &Hist{}
	h.Add(0)
	h.Add(-1)
	h.Add(math.NaN())
	h.Add(2)
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != 2 || h.Min() != 2 || h.Max() != 2 {
		t.Fatalf("stats over positives wrong: mean=%g min=%g max=%g", h.Mean(), h.Min(), h.Max())
	}
}

func TestManifestEvents(t *testing.T) {
	m := NewManifest("websearch", "emb1", 42)
	m.SimTimeSec = 100
	m.SetEvents(5000)
	if m.EventsPerSimSec != 50 {
		t.Fatalf("events/sim-sec = %g, want 50", m.EventsPerSimSec)
	}
	if m.Schema == "" || m.GoVersion == "" {
		t.Fatal("manifest missing schema or Go version")
	}
}
