// Package window provides virtual-time windowed SLO metrics: fixed
// width tumbling windows over simulated time, each holding a
// log-bucketed latency histogram (p50/p95/p99), request and QoS
// violation counts, and per-resource-class utilization, plus a QoS
// episode detector that reduces consecutive violating windows to
// begin/end events with duration and peak excess. It is the
// simulator's only windowed accumulator: each simulated partition
// keeps one Collector, which the SLO plane reads and the energy plane
// (internal/obs/energy) views.
//
// Windows are tumbling, not sliding, on purpose: a tumbling window at
// index floor(t/width) is a pure function of the observation time, so
// two partitions of the same run assign every observation to the same
// window — merging per-partition collectors (MergeFrom, in fixed part
// order, exactly like obs.Sink.MergeFrom) reproduces the single
// collector byte for byte at any shard or parallelism count. A sliding
// window's contents depend on when it is evaluated, which is a
// wall-clock notion the deterministic export must not see.
//
// Like package obs, this package imports nothing of the simulator
// beyond obs, so any simulator layer can feed a Collector without
// import cycles; the latency histograms
// reuse obs.Hist, whose fixed bucket layout makes window merges exact.
package window

import (
	"fmt"
	"math"
	"sort"

	"warehousesim/internal/obs"
)

// Config sizes a Collector.
type Config struct {
	// WidthSec is the tumbling window width in simulated seconds (> 0).
	WidthSec float64
	// QoSLatencySec is the latency bound the episode detector checks the
	// QoSPercentile against; 0 disables episode detection (windows are
	// still collected).
	QoSLatencySec float64
	// QoSPercentile is the quantile compared against QoSLatencySec,
	// e.g. 0.95. Must be in (0,1) when QoSLatencySec > 0.
	QoSPercentile float64
}

func (c Config) validate() error {
	if !(c.WidthSec > 0) || math.IsInf(c.WidthSec, 0) {
		return fmt.Errorf("window: width must be positive and finite, got %g", c.WidthSec)
	}
	if c.QoSLatencySec < 0 {
		return fmt.Errorf("window: negative QoS bound %g", c.QoSLatencySec)
	}
	if c.QoSLatencySec > 0 && (c.QoSPercentile <= 0 || c.QoSPercentile >= 1) {
		return fmt.Errorf("window: QoS percentile %g outside (0,1)", c.QoSPercentile)
	}
	return nil
}

// win is one tumbling window's accumulators. Latency lives in an exact
// mergeable histogram; utilization keeps (sum, count) pairs so merged
// means are sums-of-sums — order-independent up to the fixed part fold
// order.
type win struct {
	index      int64
	lat        obs.Hist
	requests   int64
	violations int64
	util       []utilSum // by the collector's class id
}

// utilSum is one resource class's utilization samples in a window; a
// class with n == 0 had none there.
type utilSum struct {
	sum float64
	n   int64
}

func newWin(index int64) *win {
	return &win{index: index}
}

// addUtil adds n samples summing to sum to class, one of classes ids.
func (w *win) addUtil(class, classes int, sum float64, n int64) {
	if class >= len(w.util) {
		w.util = append(w.util, make([]utilSum, classes-len(w.util))...)
	}
	w.util[class].sum += sum
	w.util[class].n += n
}

// mergeFrom folds o into w; ids maps o's class ids to w's, of classes.
func (w *win) mergeFrom(o *win, ids []int, classes int) {
	w.lat.Merge(&o.lat)
	w.requests += o.requests
	w.violations += o.violations
	for k, u := range o.util {
		if u.n > 0 {
			w.addUtil(ids[k], classes, u.sum, u.n)
		}
	}
}

// Summary is the exported view of one sealed window. T1 is clamped to
// the seal horizon, so the final partial window reports its true span.
type Summary struct {
	Index      int64   `json:"i"`
	T0         float64 `json:"t0"`
	T1         float64 `json:"t1"`
	Requests   int64   `json:"requests"`
	Violations int64   `json:"violations"`
	// Throughput is Requests over the window's actual span.
	Throughput float64 `json:"throughput"`
	P50        float64 `json:"p50"`
	P95        float64 `json:"p95"`
	P99        float64 `json:"p99"`
	// QLat is the latency at the configured QoS percentile; Violating
	// reports QLat > QoSLatencySec (always false without a bound or
	// without requests).
	QLat      float64            `json:"qos_latency"`
	Violating bool               `json:"violating"`
	Util      map[string]float64 `json:"util,omitempty"`
}

func (c *Collector) summarize(w *win) Summary {
	t0, t1 := c.span(w)
	s := Summary{
		Index: w.index, T0: t0, T1: t1,
		Requests: w.requests, Violations: w.violations,
		P50: w.lat.Quantile(0.50), P95: w.lat.Quantile(0.95), P99: w.lat.Quantile(0.99),
	}
	if span := t1 - t0; span > 0 {
		s.Throughput = float64(w.requests) / span
	}
	s.QLat, s.Violating = c.qos(w)
	for id, u := range w.util {
		if u.n > 0 {
			if s.Util == nil {
				s.Util = make(map[string]float64, len(w.util))
			}
			s.Util[c.classes[id]] = u.sum / float64(u.n)
		}
	}
	return s
}

// span returns window w's simulated-time bounds, T1 clamped to the
// seal horizon.
func (c *Collector) span(w *win) (t0, t1 float64) {
	t0 = float64(w.index) * c.cfg.WidthSec
	t1 = t0 + c.cfg.WidthSec
	if c.horizon > 0 && t1 > c.horizon {
		t1 = c.horizon
	}
	return t0, t1
}

// qos returns window w's latency at the QoS percentile and whether it
// exceeds the bound: Summary's QLat and Violating, computed without the
// rest of the summary.
func (c *Collector) qos(w *win) (qlat float64, violating bool) {
	if c.cfg.QoSLatencySec <= 0 {
		return 0, false
	}
	qlat = w.lat.Quantile(c.cfg.QoSPercentile)
	return qlat, w.requests > 0 && qlat > c.cfg.QoSLatencySec
}

// Collector accumulates one partition's windowed metrics. It is
// single-threaded like obs.Sink: every method, Recent included, runs on
// the goroutine that feeds it. A live reader reads it from that
// goroutine (the simulators hand it to SimOptions.OnProbeTick) and
// publishes bytes, never the collector. Windows are summarized only
// when read, so sealing one costs no summary.
type Collector struct {
	cfg     Config
	cur     *win
	sealed  []*win
	horizon float64 // set by Seal; clamps the last window's T1

	classes  []string       // resource class names by id
	classIDs map[string]int // and their ids
}

// New builds a Collector; the config is validated (positive width, QoS
// percentile in (0,1) when a bound is set).
func New(cfg Config) (*Collector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Collector{cfg: cfg}, nil
}

// Config returns the collector's configuration.
func (c *Collector) Config() Config { return c.cfg }

// at returns the open window for time t, sealing the previous one when
// t crosses a window boundary. Observation times must be nondecreasing
// (true for anything recorded on a simulated clock); a stale time is
// clamped into the open window rather than reopening a sealed one.
func (c *Collector) at(t float64) *win {
	idx := int64(math.Floor(t / c.cfg.WidthSec))
	if c.cur == nil {
		c.cur = newWin(idx)
		return c.cur
	}
	if idx <= c.cur.index {
		return c.cur
	}
	c.seal()
	c.cur = newWin(idx)
	return c.cur
}

// seal moves the open window to the sealed list.
func (c *Collector) seal() {
	if c.cur == nil {
		return
	}
	c.sealed = append(c.sealed, c.cur)
	c.cur = nil
}

// ObserveLatency records one completed request at simulated time t.
func (c *Collector) ObserveLatency(t, latencySec float64, violation bool) {
	w := c.at(t)
	w.lat.Add(latencySec)
	w.requests++
	if violation {
		w.violations++
	}
}

// Class returns the id of a resource class ("cpu", "net", ...),
// assigning the next one when the class is new. A feed resolves each
// of its classes once and samples by id.
func (c *Collector) Class(name string) int {
	id, ok := c.classIDs[name]
	if !ok {
		if c.classIDs == nil {
			c.classIDs = map[string]int{}
		}
		id = len(c.classes)
		c.classes = append(c.classes, name)
		c.classIDs[name] = id
	}
	return id
}

// SampleUtil records one utilization sample for the resource class of
// id class (see Class); the window reports the mean of its samples.
func (c *Collector) SampleUtil(class int, t, util float64) {
	c.at(t).addUtil(class, len(c.classes), util, 1)
}

// Seal closes the open window at the end of a run. horizon, when > 0,
// clamps the final window's T1 (and the episode end times) to the
// run's actual end, so a partial last window reports its true span.
// Safe to call with no open window; further observations after Seal
// reopen accumulation (not expected in normal use).
func (c *Collector) Seal(horizon float64) {
	if horizon > 0 && (c.horizon == 0 || horizon < c.horizon) {
		c.horizon = horizon
	}
	c.seal()
}

// Windows returns the sealed windows' summaries in index order.
func (c *Collector) Windows() []Summary {
	tail, _ := c.Recent(len(c.sealed))
	return tail
}

// Recent returns the summaries of the last n sealed windows in index
// order (all of them when fewer are sealed) and the count of sealed
// windows. It summarizes only that tail, so a live reader polling it
// pays for n windows, not for the whole run.
func (c *Collector) Recent(n int) (tail []Summary, sealed int) {
	sealed = len(c.sealed)
	from := max(sealed-max(n, 0), 0)
	tail = make([]Summary, 0, sealed-from)
	for _, w := range c.sealed[from:] {
		tail = append(tail, c.summarize(w))
	}
	return tail, sealed
}

// Merge returns a new collector holding the parts folded in argument
// order (see MergeFrom), with the first part's config. It needs at
// least one part.
func Merge(parts ...*Collector) *Collector {
	c := &Collector{cfg: parts[0].cfg}
	c.MergeFrom(parts...)
	return c
}

// MergeFrom folds the parts' sealed windows into c, index-aligned, in
// argument order. The part order must be fixed by the model (enclosure
// order), never by the partitioning — the same discipline as
// obs.Sink.MergeFrom — so the merged collector is byte-identical at
// any shard count. Parts must share c's config and must be sealed;
// merging a collector into itself panics.
func (c *Collector) MergeFrom(parts ...*Collector) {
	for _, p := range parts {
		if p == c {
			panic("window: Collector.MergeFrom cannot merge a collector into itself")
		}
		if p.cfg != c.cfg {
			panic(fmt.Sprintf("window: MergeFrom config mismatch: %+v vs %+v", p.cfg, c.cfg))
		}
		if p.cur != nil {
			panic("window: MergeFrom of an unsealed collector; call Seal first")
		}
		if p.horizon > 0 && (c.horizon == 0 || p.horizon < c.horizon) {
			c.horizon = p.horizon
		}
	}
	byIndex := map[int64]*win{}
	for _, w := range c.sealed {
		byIndex[w.index] = w
	}
	for _, p := range parts {
		ids := make([]int, len(p.classes))
		for i, name := range p.classes {
			ids[i] = c.Class(name)
		}
		for _, pw := range p.sealed {
			w := byIndex[pw.index]
			if w == nil {
				w = newWin(pw.index)
				byIndex[pw.index] = w
			}
			w.mergeFrom(pw, ids, len(c.classes))
		}
	}
	indices := make([]int64, 0, len(byIndex))
	for i := range byIndex {
		indices = append(indices, i)
	}
	sort.Slice(indices, func(a, b int) bool { return indices[a] < indices[b] })
	c.sealed = c.sealed[:0]
	for _, i := range indices {
		c.sealed = append(c.sealed, byIndex[i])
	}
}
