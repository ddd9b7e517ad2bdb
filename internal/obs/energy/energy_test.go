package energy

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"warehousesim/internal/cooling"
	"warehousesim/internal/cost"
	"warehousesim/internal/obs"
	"warehousesim/internal/obs/window"
	"warehousesim/internal/power"
)

// testActive is a fixed per-server active breakdown with every class
// populated, so class-level assertions cover the whole mapping.
func testActive() power.Breakdown {
	return power.Breakdown{CPUW: 100, MemoryW: 40, DiskW: 20, BoardW: 15, FanW: 10, FlashW: 5, SwitchW: 2}
}

func testModel() Model {
	return Model{Active: testActive(), Idle: power.DefaultIdleFractions()}
}

// newWindows builds a window collector of cfg's width, the source a
// view of cfg reads.
func newWindows(t *testing.T, cfg Config) *window.Collector {
	t.Helper()
	src, err := window.New(window.Config{WidthSec: cfg.WidthSec})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// newView builds a window collector and the energy view over it; tests
// feed the collector and read the view.
func newView(t *testing.T, cfg Config) (*window.Collector, *Collector) {
	t.Helper()
	src := newWindows(t, cfg)
	c, err := New(cfg, src)
	if err != nil {
		t.Fatal(err)
	}
	return src, c
}

func TestConfigValidation(t *testing.T) {
	badIdle := power.DefaultIdleFractions()
	badIdle.CPU = 2
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid", Config{WidthSec: 1, Model: testModel()}, true},
		{"zero-width", Config{WidthSec: 0, Model: testModel()}, false},
		{"negative-width", Config{WidthSec: -1, Model: testModel()}, false},
		{"nan-width", Config{WidthSec: math.NaN(), Model: testModel()}, false},
		{"inf-width", Config{WidthSec: math.Inf(1), Model: testModel()}, false},
		{"bad-idle", Config{WidthSec: 1, Model: Model{Active: testActive(), Idle: badIdle}}, false},
		{"nan-active", Config{WidthSec: 1, Model: Model{Active: power.Breakdown{CPUW: math.NaN()}, Idle: staticIdle}}, false},
		{"negative-active", Config{WidthSec: 1, Model: Model{Active: power.Breakdown{CPUW: -5}, Idle: staticIdle}}, false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate err=%v, want ok=%v", tc.name, err, tc.ok)
		}
	}
	// New rejects an invalid config, a missing source, and a source whose
	// windows are not the config's width.
	cfg := Config{WidthSec: 1, Model: testModel()}
	src := newWindows(t, cfg)
	if _, err := New(Config{WidthSec: 0, Model: testModel()}, src); err == nil {
		t.Error("New accepted a zero-width config")
	}
	if _, err := New(cfg, nil); err == nil {
		t.Error("New accepted a nil source")
	}
	if _, err := New(Config{WidthSec: 2, Model: testModel()}, src); err == nil {
		t.Error("New accepted a source of another width")
	}
}

// The acceptance-pinned degenerate case: with every idle fraction at
// 1.0, every window's watts equal the static total bit-for-bit, at any
// utilization.
func TestStaticDegenerateBitExact(t *testing.T) {
	src, c := newView(t, Config{WidthSec: 1, Model: Model{Active: testActive(), Idle: staticIdle}})
	src.SampleUtil(src.Class("cpu"), 0.5, 0.31)
	src.SampleUtil(src.Class("disk"), 0.5, 0.92)
	src.ObserveLatency(1.5, 0.01, false) // window 1: no util samples at all
	src.SampleUtil(src.Class("net"), 2.5, 0.11)
	src.Seal(3)

	static := testActive().TotalW()
	for _, w := range c.Windows() {
		if w.Watts != static {
			t.Errorf("window %d: watts %v != static %v (must be bit-exact)", w.Index, w.Watts, static)
		}
		for class, want := range map[string]float64{
			"cpu": 100, "memory": 40, "disk": 20, "board": 15, "fan": 10, "flash": 5, "switch": 2,
		} {
			if got := w.WattsByClass[class]; got != want {
				t.Errorf("window %d class %s: %v != %v", w.Index, class, got, want)
			}
		}
	}
	if tot := c.Totals(); tot.MeanW != static || tot.StaticW != static {
		t.Errorf("totals mean %v static %v, want both %v", tot.MeanW, tot.StaticW, static)
	}
}

func TestWattsAtDriverMapping(t *testing.T) {
	idle := power.IdleFractions{} // fully proportional: watts = active * util
	m := Model{Active: testActive(), Idle: idle}

	// cpu drives cpu, fan, and (absent memblade/net) memory and board.
	b := m.WattsAt(map[string]float64{"cpu": 0.5})
	if b.CPUW != 50 || b.FanW != 5 || b.MemoryW != 20 || b.BoardW != 7.5 {
		t.Errorf("cpu-only mapping: %+v", b)
	}
	if b.DiskW != 0 || b.FlashW != 0 || b.SwitchW != 0 {
		t.Errorf("undriven classes should idle: %+v", b)
	}
	// Rack-model names take precedence over flat stand-ins.
	b = m.WattsAt(map[string]float64{"cpu": 1, "memblade": 0.25, "net": 0.5, "san": 0.75})
	if b.MemoryW != 10 {
		t.Errorf("memblade should drive memory: %+v", b)
	}
	if b.BoardW != 7.5 || b.SwitchW != 1 {
		t.Errorf("net should drive board and switch: %+v", b)
	}
	if b.DiskW != 15 || b.FlashW != 3.75 {
		t.Errorf("san should drive disk and flash: %+v", b)
	}
	// Out-of-range samples clamp.
	b = m.WattsAt(map[string]float64{"cpu": 1.7, "disk": -0.3})
	if b.CPUW != 100 || b.DiskW != 0 {
		t.Errorf("clamping failed: %+v", b)
	}
}

func TestWindowDerivedMetrics(t *testing.T) {
	src, c := newView(t, Config{WidthSec: 2, Model: Model{Active: power.Breakdown{CPUW: 100}, Idle: power.IdleFractions{CPU: 0.5}}})
	// Window 0: cpu util mean 0.5 -> 75 W over 2s = 150 J; 3 requests,
	// 1 violating.
	src.SampleUtil(src.Class("cpu"), 0.5, 0.4)
	src.SampleUtil(src.Class("cpu"), 1.5, 0.6)
	src.ObserveLatency(0.2, 0.01, false)
	src.ObserveLatency(0.4, 0.01, true)
	src.ObserveLatency(1.9, 0.01, false)
	src.Seal(2)

	ws := c.Windows()
	if len(ws) != 1 {
		t.Fatalf("got %d windows", len(ws))
	}
	w := ws[0]
	if math.Abs(w.Watts-75) > 1e-12 || math.Abs(w.Joules-150) > 1e-12 {
		t.Errorf("watts %g joules %g, want 75/150", w.Watts, w.Joules)
	}
	if math.Abs(w.JoulesPerRequest-50) > 1e-12 {
		t.Errorf("J/req = %g, want 50", w.JoulesPerRequest)
	}
	if math.Abs(w.JoulesPerGoodRequest-75) > 1e-12 {
		t.Errorf("J/good-req = %g, want 75", w.JoulesPerGoodRequest)
	}
	if want := (3.0 / 2.0) / 75.0; math.Abs(w.PerfPerWatt-want) > 1e-15 {
		t.Errorf("perf/W = %g, want %g", w.PerfPerWatt, want)
	}
}

func TestSealClampsFinalPartialWindow(t *testing.T) {
	src, c := newView(t, Config{WidthSec: 10, Model: Model{Active: power.Breakdown{CPUW: 10}, Idle: staticIdle}})
	src.ObserveLatency(12, 0.01, false)
	src.Seal(15)
	ws := c.Windows()
	if len(ws) != 1 {
		t.Fatalf("got %d windows", len(ws))
	}
	if ws[0].T0 != 10 || ws[0].T1 != 15 {
		t.Errorf("partial window spans [%g,%g], want [10,15]", ws[0].T0, ws[0].T1)
	}
	if math.Abs(ws[0].Joules-50) > 1e-12 {
		t.Errorf("partial window joules %g, want 10W * 5s = 50", ws[0].Joules)
	}
}

func TestTotalsAggregation(t *testing.T) {
	src, c := newView(t, Config{WidthSec: 1, Model: Model{Active: power.Breakdown{CPUW: 100}, Idle: power.IdleFractions{CPU: 0.5}}})
	src.SampleUtil(src.Class("cpu"), 0.5, 1) // window 0: 100 W
	src.ObserveLatency(0.5, 0.01, false)
	src.SampleUtil(src.Class("cpu"), 1.5, 0) // window 1: 50 W
	src.ObserveLatency(1.5, 0.01, true)
	src.Seal(2)

	tot := c.Totals()
	if tot.Windows != 2 || tot.SpanSec != 2 {
		t.Fatalf("totals %+v", tot)
	}
	if math.Abs(tot.Joules-150) > 1e-12 || math.Abs(tot.MeanW-75) > 1e-12 {
		t.Errorf("joules %g meanW %g", tot.Joules, tot.MeanW)
	}
	if tot.Requests != 2 || tot.Violations != 1 {
		t.Errorf("requests %d violations %d", tot.Requests, tot.Violations)
	}
	if math.Abs(tot.JoulesPerRequest-75) > 1e-12 || math.Abs(tot.JoulesPerGoodRequest-150) > 1e-12 {
		t.Errorf("J/req %g J/good %g", tot.JoulesPerRequest, tot.JoulesPerGoodRequest)
	}
	if want := 2.0 / 150.0; math.Abs(tot.PerfPerWatt-want) > 1e-15 {
		t.Errorf("perf/W %g, want %g", tot.PerfPerWatt, want)
	}
}

func TestProportionalityFit(t *testing.T) {
	// Fully proportional single-class model: watts = 100*util, so the
	// fit must recover slope 100, intercept 0.
	src, c := newView(t, Config{WidthSec: 1, Model: Model{Active: power.Breakdown{CPUW: 100}, Idle: power.IdleFractions{}}})
	for i, u := range []float64{0.2, 0.4, 0.6, 0.8} {
		src.SampleUtil(src.Class("cpu"), float64(i)+0.5, u)
	}
	// A cpu-less window must be omitted from the curve.
	src.SampleUtil(src.Class("disk"), 4.5, 0.9)
	src.Seal(5)

	pts := c.Curve()
	if len(pts) != 4 {
		t.Fatalf("curve has %d points, want 4 (cpu-less window omitted)", len(pts))
	}
	p := c.Proportionality()
	if p.Points != 4 {
		t.Errorf("points %d", p.Points)
	}
	if math.Abs(p.SlopeWPerUtil-100) > 1e-9 || math.Abs(p.InterceptW) > 1e-9 {
		t.Errorf("fit slope %g intercept %g, want 100/0", p.SlopeWPerUtil, p.InterceptW)
	}
	if math.Abs(p.MinWatts-20) > 1e-12 || math.Abs(p.MaxWatts-80) > 1e-12 {
		t.Errorf("min %g max %g", p.MinWatts, p.MaxWatts)
	}
}

func TestProportionalityDegenerateInputs(t *testing.T) {
	src, c := newView(t, Config{WidthSec: 1, Model: testModel()})
	if p := c.Proportionality(); p.Points != 0 || p.SlopeWPerUtil != 0 {
		t.Errorf("empty collector fit %+v", p)
	}
	// Zero utilization variance: slope stays 0, intercept is the mean.
	src.SampleUtil(src.Class("cpu"), 0.5, 0.5)
	src.SampleUtil(src.Class("cpu"), 1.5, 0.5)
	src.Seal(2)
	p := c.Proportionality()
	if p.SlopeWPerUtil != 0 || p.InterceptW <= 0 {
		t.Errorf("zero-variance fit %+v", p)
	}
}

// Partition independence: the same observations split across two part
// collectors and merged must export byte-identically to a single
// collector that saw everything.
func TestMergeMatchesSingleCollectorByteExact(t *testing.T) {
	cfg := Config{WidthSec: 1, Model: testModel()}
	// Each op belongs to one partition; the observation stream is
	// time-ordered globally (the single collector) and per part.
	ops := []struct {
		part int
		f    func(*window.Collector)
	}{
		{0, func(c *window.Collector) { c.SampleUtil(c.Class("cpu"), 0.25, 0.5) }},
		{0, func(c *window.Collector) { c.ObserveLatency(0.5, 0.01, false) }},
		{1, func(c *window.Collector) { c.SampleUtil(c.Class("cpu"), 0.75, 0.7) }},
		{1, func(c *window.Collector) { c.ObserveLatency(1.5, 0.01, true) }},
		{0, func(c *window.Collector) { c.SampleUtil(c.Class("cpu"), 2.25, 0.9) }},
		{1, func(c *window.Collector) { c.SampleUtil(c.Class("disk"), 2.75, 0.4) }},
	}

	single, singleView := newView(t, cfg)
	for _, op := range ops {
		op.f(single)
	}
	single.Seal(3)

	p0, p1 := newWindows(t, cfg), newWindows(t, cfg)
	for _, op := range ops {
		if op.part == 0 {
			op.f(p0)
		} else {
			op.f(p1)
		}
	}
	p0.Seal(3)
	p1.Seal(3)
	merged, err := New(cfg, window.Merge(p0, p1))
	if err != nil {
		t.Fatal(err)
	}

	var a, b bytes.Buffer
	if err := singleView.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := merged.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("merged export differs from single-collector export:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestExportFormat(t *testing.T) {
	src, c := newView(t, Config{WidthSec: 1, Model: testModel()})
	src.SampleUtil(src.Class("cpu"), 0.5, 0.5)
	src.ObserveLatency(0.5, 0.01, false)
	src.Seal(1)

	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // manifest + 1 window + 1 curve point
		t.Fatalf("got %d lines:\n%s", len(lines), buf.String())
	}
	var man map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &man); err != nil {
		t.Fatal(err)
	}
	if man["type"] != "energy_manifest" || man["schema"] != SchemaEnergy {
		t.Errorf("manifest %v", man)
	}
	if _, ok := man["idle_fractions"].(map[string]any); !ok {
		t.Errorf("manifest lacks idle_fractions: %v", man)
	}
	for i, wantType := range map[int]string{1: "window", 2: "curve"} {
		var line map[string]any
		if err := json.Unmarshal([]byte(lines[i]), &line); err != nil {
			t.Fatal(err)
		}
		if line["type"] != wantType {
			t.Errorf("line %d type %v, want %s", i, line["type"], wantType)
		}
	}
}

func TestLiveWindowsAndSnapshot(t *testing.T) {
	src, c := newView(t, Config{WidthSec: 1, Model: testModel()})
	src.SampleUtil(src.Class("cpu"), 0.5, 0.5)
	src.SampleUtil(src.Class("cpu"), 1.5, 0.5) // seals window 0
	b, err := LiveSnapshot([]*Collector{c})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema string `json:"schema"`
		Parts  []struct {
			Part    int              `json:"part"`
			Sealed  int              `json:"sealed"`
			Windows []map[string]any `json:"windows"`
		} `json:"parts"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != SchemaLive || len(doc.Parts) != 1 || doc.Parts[0].Sealed != 1 || len(doc.Parts[0].Windows) != 1 {
		t.Errorf("snapshot %s", b)
	}
	// Zero parts still yields a valid document.
	if b, err = LiveSnapshot(nil); err != nil || !bytes.Contains(b, []byte(SchemaLive)) {
		t.Errorf("empty snapshot %s, %v", b, err)
	}
}

func TestEmitTotals(t *testing.T) {
	sink := obs.NewSink()
	src, c := newView(t, Config{WidthSec: 1, Model: testModel()})
	src.SampleUtil(src.Class("cpu"), 0.5, 0.5)
	src.ObserveLatency(0.5, 0.01, false)
	src.Seal(1)
	c.EmitTotals(sink)
	if sink.CounterValue("energy.windows") != 1 {
		t.Error("energy.windows counter missing")
	}
	found := false
	for _, e := range sink.Events() {
		if e.Stream == "energy_total" {
			found = true
		}
	}
	if !found {
		t.Error("energy_total event missing")
	}
	// A nil recorder is a no-op, not a panic.
	c.EmitTotals(nil)
}

func TestTCORollup(t *testing.T) {
	src, c := newView(t, Config{WidthSec: 1, Model: Model{Active: power.Breakdown{CPUW: 100}, Idle: power.IdleFractions{CPU: 0.5}}})
	src.SampleUtil(src.Class("cpu"), 0.5, 0) // 50 W vs static 100 W
	src.Seal(1)
	pc := cost.DefaultPCParams()
	r, err := c.TCO(pc, cooling.EnclosureFor(cooling.Conventional))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.MeanW-50) > 1e-12 || math.Abs(r.StaticW-100) > 1e-12 {
		t.Errorf("rollup watts %+v", r)
	}
	if math.Abs(r.RoomFactor-1) > 1e-12 {
		t.Errorf("conventional room factor %g", r.RoomFactor)
	}
	if want := pc.BurdenedUSD(50); math.Abs(r.MeasuredUSD-want) > 1e-9 {
		t.Errorf("measured $%g, want $%g", r.MeasuredUSD, want)
	}
	if math.Abs(r.SavingsFrac-0.5) > 1e-12 {
		t.Errorf("savings frac %g, want 0.5 (half the watts, linear pricing)", r.SavingsFrac)
	}
	if r.String() == "" {
		t.Error("empty String()")
	}
	// A better enclosure scales only the cooling terms, so measured
	// dollars must drop but stay above the IT electricity floor.
	r2, err := c.TCO(pc, cooling.EnclosureFor(cooling.AggregatedMicroblade))
	if err != nil {
		t.Fatal(err)
	}
	if r2.MeasuredUSD >= r.MeasuredUSD || r2.BurdenMultiplier >= r.BurdenMultiplier {
		t.Errorf("aggregated enclosure did not cut burdened cost: %+v vs %+v", r2, r)
	}
	// Invalid params surface as errors.
	if _, err := c.TCO(cost.PCParams{Years: -1}, cooling.EnclosureFor(cooling.Conventional)); err == nil {
		t.Error("invalid PC params accepted")
	}
}

// staticIdle is the all-1.0 idle split that degenerates to the static
// power model.
var staticIdle = power.IdleFractions{CPU: 1, Memory: 1, Disk: 1, Board: 1, Fan: 1, Flash: 1, Switch: 1}
