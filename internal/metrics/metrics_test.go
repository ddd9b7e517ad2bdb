package metrics

import (
	"math"
	"testing"
)

func sample() *Table {
	t := &Table{}
	t.Add(Measurement{Workload: "w1", System: "base", Perf: 100, PowerW: 200, InfUSD: 1000, PCUSD: 500, TCOUSD: 1500})
	t.Add(Measurement{Workload: "w1", System: "alt", Perf: 50, PowerW: 50, InfUSD: 250, PCUSD: 125, TCOUSD: 375})
	t.Add(Measurement{Workload: "w2", System: "base", Perf: 10, PowerW: 200, InfUSD: 1000, PCUSD: 500, TCOUSD: 1500})
	t.Add(Measurement{Workload: "w2", System: "alt", Perf: 8, PowerW: 50, InfUSD: 250, PCUSD: 125, TCOUSD: 375})
	return t
}

func TestDerivedMetrics(t *testing.T) {
	m := Measurement{Perf: 100, PowerW: 50, InfUSD: 200, PCUSD: 100, TCOUSD: 300}
	if got := m.PerfPerWatt(); got != 2 {
		t.Errorf("Perf/W = %g", got)
	}
	if got := m.PerfPerInfUSD(); got != 0.5 {
		t.Errorf("Perf/Inf = %g", got)
	}
	if got := m.PerfPerPCUSD(); got != 1 {
		t.Errorf("Perf/P&C = %g", got)
	}
	if got := m.PerfPerTCOUSD(); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("Perf/TCO = %g", got)
	}
}

func TestZeroDenominatorIsNaN(t *testing.T) {
	m := Measurement{Perf: 1}
	if !math.IsNaN(m.PerfPerWatt()) || !math.IsNaN(m.PerfPerTCOUSD()) {
		t.Error("zero denominators should yield NaN")
	}
}

func TestValueSelectsMetric(t *testing.T) {
	m := Measurement{Perf: 100, PowerW: 50, InfUSD: 200, PCUSD: 100, TCOUSD: 300}
	for _, k := range []Metric{Perf, PerfPerInf, PerfPerWatt, PerfPerPC, PerfPerTCO} {
		if math.IsNaN(m.Value(k)) {
			t.Errorf("metric %v is NaN", k)
		}
	}
	if m.Value(Perf) != 100 || m.Value(PerfPerWatt) != 2 {
		t.Error("Value dispatch wrong")
	}
	if !math.IsNaN(m.Value(Metric(42))) {
		t.Error("unknown metric should be NaN")
	}
}

func TestMetricStrings(t *testing.T) {
	want := map[Metric]string{
		Perf: "Perf", PerfPerInf: "Perf/Inf-$", PerfPerWatt: "Perf/W",
		PerfPerPC: "Perf/P&C-$", PerfPerTCO: "Perf/TCO-$",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), s)
		}
	}
}

func TestTableLookup(t *testing.T) {
	tbl := sample()
	if _, ok := tbl.Get("w1", "alt"); !ok {
		t.Error("Get missed existing row")
	}
	if _, ok := tbl.Get("w1", "none"); ok {
		t.Error("Get found a missing row")
	}
	if ws := tbl.Workloads(); len(ws) != 2 || ws[0] != "w1" || ws[1] != "w2" {
		t.Errorf("Workloads = %v", ws)
	}
	if ss := tbl.Systems(); len(ss) != 2 || ss[0] != "base" || ss[1] != "alt" {
		t.Errorf("Systems = %v", ss)
	}
}

func TestRelative(t *testing.T) {
	tbl := sample()
	rel := tbl.Relative(Perf, "base")
	if got := rel["w1"]["alt"]; math.Abs(got-0.5) > 1e-12 {
		t.Errorf("w1 alt relative perf = %g, want 0.5", got)
	}
	if got := rel["w1"]["base"]; got != 1 {
		t.Errorf("baseline relative = %g", got)
	}
	// alt is 4x cheaper TCO: relative Perf/TCO for w1 = 0.5/0.25 = 2.
	relTCO := tbl.Relative(PerfPerTCO, "base")
	if got := relTCO["w1"]["alt"]; math.Abs(got-2) > 1e-12 {
		t.Errorf("w1 alt relative Perf/TCO = %g, want 2", got)
	}
}

func TestHMeanRelative(t *testing.T) {
	tbl := sample()
	hm := tbl.HMeanRelative(Perf, "base")
	// w1: 0.5, w2: 0.8 -> hmean = 2/(2+1.25) = 0.6154.
	want := 2 / (1/0.5 + 1/0.8)
	if got := hm["alt"]; math.Abs(got-want) > 1e-12 {
		t.Errorf("hmean alt = %g, want %g", got, want)
	}
	if got := hm["base"]; math.Abs(got-1) > 1e-12 {
		t.Errorf("hmean base = %g", got)
	}
}

func TestHMeanSkipsIncompleteSystems(t *testing.T) {
	tbl := sample()
	tbl.Add(Measurement{Workload: "w1", System: "partial", Perf: 1, PowerW: 1, InfUSD: 1, PCUSD: 1, TCOUSD: 1})
	hm := tbl.HMeanRelative(Perf, "base")
	if _, ok := hm["partial"]; ok {
		t.Error("system missing a workload should be omitted from hmean")
	}
}

// TestHMeanOmitsNaNSystems is the regression test for the
// zero-denominator leak: a measurement with PowerW == 0 makes
// PerfPerWatt NaN via safeDiv, which used to flow through
// HarmonicMean and surface as a NaN suite row. The system must be
// omitted explicitly instead.
func TestHMeanOmitsNaNSystems(t *testing.T) {
	tbl := sample()
	tbl.Add(Measurement{Workload: "w1", System: "broken", Perf: 1, InfUSD: 1, PCUSD: 1, TCOUSD: 1}) // PowerW 0
	tbl.Add(Measurement{Workload: "w2", System: "broken", Perf: 1, InfUSD: 1, PCUSD: 1, TCOUSD: 1})
	hm := tbl.HMeanRelative(PerfPerWatt, "base")
	if v, ok := hm["broken"]; ok {
		t.Errorf("zero-power system must be omitted, got hmean %g", v)
	}
	for s, v := range hm {
		if math.IsNaN(v) {
			t.Errorf("NaN leaked into hmean row for %q", s)
		}
	}
	// Healthy systems keep their rows.
	if _, ok := hm["alt"]; !ok {
		t.Error("healthy system missing from hmean")
	}
}

// TestRelativeSkipsNaNBaseline: a NaN baseline value must drop the
// workload from the relative table rather than producing NaN ratios.
func TestRelativeSkipsNaNBaseline(t *testing.T) {
	tbl := &Table{}
	tbl.Add(Measurement{Workload: "w1", System: "base", Perf: 1}) // PowerW 0 -> Perf/W NaN
	tbl.Add(Measurement{Workload: "w1", System: "alt", Perf: 1, PowerW: 1})
	rel := tbl.Relative(PerfPerWatt, "base")
	if _, ok := rel["w1"]; ok {
		t.Error("workload with NaN baseline must be skipped")
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	got := SortedKeys(m)
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Errorf("SortedKeys = %v", got)
	}
}
