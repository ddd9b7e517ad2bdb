// Package energy derives time-resolved power and energy telemetry from
// the windowed metrics plane: each sealed window of a window.Collector
// — its mean utilization per resource class and its completed-request
// counts — becomes one energy window whose watts come from a
// utilization-conditioned idle/active split layered on the static
// power model (power.Breakdown.At), integrated to joules, with
// energy-per-request, energy-per-QoS-satisfied-request and windowed
// perf-per-watt. Across windows the view exposes an
// energy-proportionality curve — (utilization, watts) points and their
// least-squares slope — the time-resolved comparison the paper's
// static activity-factor model (internal/power) cannot make.
//
// The static model is the degenerate case: with every idle fraction at
// 1.0 the utilization term vanishes and each window's watts reproduce
// power.Breakdown.TotalW() bit-exactly, which the tests pin.
//
// A Collector keeps no per-window state: windows, their means and
// their merge all belong to the window package (tumbling windows
// binned by observation time, per-partition collectors merged in a
// fixed model order, means as sums-of-sums), and every exported map
// marshals with sorted keys — so the -energy-out export is
// byte-identical at any shard or parallelism count.
package energy

import (
	"fmt"
	"math"

	"warehousesim/internal/obs"
	"warehousesim/internal/obs/window"
	"warehousesim/internal/power"
)

// Model is the utilization-conditioned power model of one run: the
// static per-server active breakdown (spec-sheet maxima scaled by the
// activity factor — exactly what power.Model.ServerConsumed returns)
// and the idle fraction per component class.
type Model struct {
	// Active is the per-server active-power breakdown, including the
	// rack-switch share.
	Active power.Breakdown
	// Idle is the idle/active split per component class; all 1.0
	// degenerates to the static model.
	Idle power.IdleFractions
}

// Validate reports invalid models.
func (m Model) Validate() error {
	if err := m.Idle.Validate(); err != nil {
		return err
	}
	if w := m.Active.TotalW(); math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
		return fmt.Errorf("energy: invalid active power %g W", w)
	}
	return nil
}

// driverUtil returns the first present class's utilization, clamped to
// [0,1]; a component whose drivers were never observed draws idle power.
func driverUtil(util map[string]float64, classes ...string) float64 {
	for _, c := range classes {
		if v, ok := util[c]; ok {
			if v < 0 {
				return 0
			}
			if v > 1 {
				return 1
			}
			return v
		}
	}
	return 0
}

// WattsAt maps the observed per-resource-class utilizations (the
// classes the simulators' probes feed the window collectors: cpu,
// disk, net, san, memblade) onto the power model's component classes and
// returns the utilization-conditioned breakdown. The driver mapping is
// fixed and documented in DESIGN.md §10: each component interpolates on
// the utilization of the resource whose activity physically drives it,
// with rack-model names (san, memblade) preferred over their flat-model
// stand-ins when present.
func (m Model) WattsAt(util map[string]float64) power.Breakdown {
	return m.Active.At(m.Idle, power.Utilizations{
		CPU:    driverUtil(util, "cpu"),
		Memory: driverUtil(util, "memblade", "cpu"), // DRAM traffic tracks cores; blade when modeled
		Disk:   driverUtil(util, "disk", "san"),
		Board:  driverUtil(util, "net", "cpu"), // chipset+NIC electronics track I/O
		Fan:    driverUtil(util, "cpu"),        // fan speed tracks thermal (≈ core) load
		Flash:  driverUtil(util, "disk", "san"),
		Switch: driverUtil(util, "net"),
	})
}

// Config sizes a Collector.
type Config struct {
	// WidthSec is the tumbling window width in simulated seconds (> 0);
	// it must equal the width of the window collector the view reads.
	WidthSec float64
	// Model derives watts from each window's utilization.
	Model Model
}

// Validate reports invalid configs: a width that is not positive and
// finite, or an invalid model.
func (c Config) Validate() error {
	if !(c.WidthSec > 0) || math.IsInf(c.WidthSec, 0) {
		return fmt.Errorf("energy: width must be positive and finite, got %g", c.WidthSec)
	}
	return c.Model.Validate()
}

// Window is the exported view of one sealed window: mean utilization
// per observed class, the derived power draw per component class and
// in total, the integrated joules, and the derived energy-efficiency
// figures. T1 is clamped to the seal horizon, so the final partial
// window reports its true span.
type Window struct {
	Index    int64   `json:"i"`
	T0       float64 `json:"t0"`
	T1       float64 `json:"t1"`
	Requests int64   `json:"requests"`
	// Violations counts QoS-violating completions; Requests-Violations
	// is the QoS-satisfied ("good") request count.
	Violations int64 `json:"violations"`
	// Util is the mean utilization per observed resource class.
	Util map[string]float64 `json:"util,omitempty"`
	// WattsByClass is the derived draw per power-model component class.
	WattsByClass map[string]float64 `json:"watts_by_class"`
	// Watts is the total derived draw; Joules integrates it over the
	// window's span.
	Watts  float64 `json:"watts"`
	Joules float64 `json:"joules"`
	// JoulesPerRequest and JoulesPerGoodRequest are 0 when the window
	// completed no (good) requests.
	JoulesPerRequest     float64 `json:"joules_per_request"`
	JoulesPerGoodRequest float64 `json:"joules_per_good_request"`
	// PerfPerWatt is the window's throughput over its watts.
	PerfPerWatt float64 `json:"perf_per_watt"`
}

// CurvePoint is one point of the energy-proportionality curve: the
// window's driving (cpu-class) utilization and its derived total watts.
type CurvePoint struct {
	Util  float64 `json:"util"`
	Watts float64 `json:"watts"`
}

// Proportionality summarizes the energy-proportionality curve: the
// least-squares fit of watts against cpu utilization across windows. A
// perfectly proportional server has InterceptW 0; the static model has
// SlopeWPerUtil 0 (watts never move).
type Proportionality struct {
	Points        int     `json:"points"`
	SlopeWPerUtil float64 `json:"slope_w_per_util"`
	InterceptW    float64 `json:"intercept_w"`
	MinWatts      float64 `json:"min_watts"`
	MaxWatts      float64 `json:"max_watts"`
}

// Totals aggregates the sealed windows to run level.
type Totals struct {
	Windows  int     `json:"windows"`
	SpanSec  float64 `json:"span_sec"`
	Joules   float64 `json:"joules"`
	MeanW    float64 `json:"mean_watts"`
	StaticW  float64 `json:"static_watts"`
	Requests int64   `json:"requests"`
	// Violations counts QoS-violating completions over the run.
	Violations           int64   `json:"violations"`
	JoulesPerRequest     float64 `json:"joules_per_request"`
	JoulesPerGoodRequest float64 `json:"joules_per_good_request"`
	PerfPerWatt          float64 `json:"perf_per_watt"`
}

// Collector is the energy view of one window.Collector: every method
// derives its answer from the source's sealed windows when called, so
// the view is exactly as current as its source. Like the source it is
// read on the source's owning goroutine.
type Collector struct {
	cfg Config
	src *window.Collector
}

// New returns the energy view of src. The config must be valid and its
// width must be src's, so the energy windows are src's windows.
func New(cfg Config, src *window.Collector) (*Collector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("energy: no window collector to read")
	}
	if w := src.Config().WidthSec; w != cfg.WidthSec {
		return nil, fmt.Errorf("energy: width %g differs from the window collector's %g", cfg.WidthSec, w)
	}
	return &Collector{cfg: cfg, src: src}, nil
}

// Config returns the view's configuration.
func (c *Collector) Config() Config { return c.cfg }

// Source returns the window collector the view reads.
func (c *Collector) Source() *window.Collector { return c.src }

// derive turns window summaries into energy windows: watts from each
// window's mean utilizations, joules over its horizon-clamped span.
func (c *Collector) derive(sums []window.Summary) []Window {
	out := make([]Window, len(sums))
	for i, s := range sums {
		w := Window{
			Index: s.Index, T0: s.T0, T1: s.T1,
			Requests: s.Requests, Violations: s.Violations, Util: s.Util,
		}
		b := c.cfg.Model.WattsAt(s.Util)
		w.WattsByClass = map[string]float64{
			"cpu": b.CPUW, "memory": b.MemoryW, "disk": b.DiskW, "board": b.BoardW,
			"fan": b.FanW, "flash": b.FlashW, "switch": b.SwitchW,
		}
		w.Watts = b.TotalW()
		span := w.T1 - w.T0
		if span > 0 {
			w.Joules = w.Watts * span
		}
		if w.Watts > 0 && span > 0 {
			w.PerfPerWatt = float64(w.Requests) / span / w.Watts
		}
		if w.Requests > 0 {
			w.JoulesPerRequest = w.Joules / float64(w.Requests)
		}
		if good := w.Requests - w.Violations; good > 0 {
			w.JoulesPerGoodRequest = w.Joules / float64(good)
		}
		out[i] = w
	}
	return out
}

// Windows returns the sealed windows' energy summaries in index order.
func (c *Collector) Windows() []Window { return c.derive(c.src.Windows()) }

// Totals aggregates the sealed windows to run level.
func (c *Collector) Totals() Totals { return c.totals(c.Windows()) }

func (c *Collector) totals(ws []Window) Totals {
	t := Totals{StaticW: c.cfg.Model.Active.TotalW()}
	for _, s := range ws {
		t.Windows++
		t.SpanSec += s.T1 - s.T0
		t.Joules += s.Joules
		t.Requests += s.Requests
		t.Violations += s.Violations
	}
	if t.SpanSec > 0 {
		t.MeanW = t.Joules / t.SpanSec
	}
	if t.Requests > 0 {
		t.JoulesPerRequest = t.Joules / float64(t.Requests)
	}
	if good := t.Requests - t.Violations; good > 0 {
		t.JoulesPerGoodRequest = t.Joules / float64(good)
	}
	if t.Joules > 0 && t.SpanSec > 0 {
		t.PerfPerWatt = float64(t.Requests) / t.Joules // = throughput / mean watts
	}
	return t
}

// Curve returns the energy-proportionality curve: one (cpu-class
// utilization, total watts) point per sealed window, in index order.
// Windows that never observed a cpu sample are omitted — their 0-util
// point would be an artifact of probe phase, not of load.
func (c *Collector) Curve() []CurvePoint { return curve(c.Windows()) }

func curve(ws []Window) []CurvePoint {
	var pts []CurvePoint
	for _, w := range ws {
		if _, ok := w.Util["cpu"]; !ok {
			continue
		}
		pts = append(pts, CurvePoint{Util: driverUtil(w.Util, "cpu"), Watts: w.Watts})
	}
	return pts
}

// Proportionality fits the curve by least squares. With fewer than two
// points (or zero utilization variance) the slope and intercept are 0.
func (c *Collector) Proportionality() Proportionality { return fit(c.Curve()) }

func fit(pts []CurvePoint) Proportionality {
	p := Proportionality{Points: len(pts)}
	if len(pts) == 0 {
		return p
	}
	p.MinWatts, p.MaxWatts = pts[0].Watts, pts[0].Watts
	var sx, sy, sxx, sxy float64
	for _, pt := range pts {
		if pt.Watts < p.MinWatts {
			p.MinWatts = pt.Watts
		}
		if pt.Watts > p.MaxWatts {
			p.MaxWatts = pt.Watts
		}
		sx += pt.Util
		sy += pt.Watts
		sxx += pt.Util * pt.Util
		sxy += pt.Util * pt.Watts
	}
	n := float64(len(pts))
	if det := n*sxx - sx*sx; det > 0 {
		p.SlopeWPerUtil = (n*sxy - sx*sy) / det
		p.InterceptW = (sy - p.SlopeWPerUtil*sx) / n
	} else {
		p.InterceptW = sy / n
	}
	return p
}

// EmitTotals writes the run-level energy summary into the
// deterministic recorder stream: energy.* counters and observations
// plus one "energy_total" event. Everything is computed from the
// merged source, so the stream is identical at every shard and
// parallelism count. Call once the source is sealed and merged.
func (c *Collector) EmitTotals(rec *obs.Sink) {
	if rec == nil {
		return
	}
	ws := c.Windows()
	t := c.totals(ws)
	prop := fit(curve(ws))
	rec.Count("energy.windows", int64(t.Windows))
	rec.Observe("energy.joules", t.Joules)
	rec.Observe("energy.mean_watts", t.MeanW)
	if t.Requests > 0 {
		rec.Observe("energy.joules_per_request", t.JoulesPerRequest)
	}
	rec.Event("energy_total", t.SpanSec,
		obs.F("joules", t.Joules),
		obs.F("mean_watts", t.MeanW),
		obs.F("static_watts", t.StaticW),
		obs.F("joules_per_request", t.JoulesPerRequest),
		obs.F("joules_per_good_request", t.JoulesPerGoodRequest),
		obs.F("perf_per_watt", t.PerfPerWatt),
		obs.F("prop_slope_w_per_util", prop.SlopeWPerUtil),
		obs.F("prop_intercept_w", prop.InterceptW))
}
