package obs

import (
	"math"
	"sort"

	"warehousesim/internal/bucket"
)

// Point is one sample of a time series.
type Point struct {
	T float64
	V float64
}

// Series is an append-only time series. Sink.Series hands out a
// series as a handle.
type Series struct {
	Name   string
	Points []Point
}

// Add appends the sample (t, v): Sink.Gauge without the name lookup.
func (sr *Series) Add(t, v float64) { sr.Points = append(sr.Points, Point{T: t, V: v}) }

// Counter is a monotonic counter of a Sink, handed out by
// Sink.Counter.
type Counter struct{ n int64 }

// Add adds delta to the counter: Sink.Count without the name lookup.
func (c *Counter) Add(delta int64) { c.n += delta }

// histBucketsPerDecade controls histogram resolution: buckets are
// log-spaced at 5 per decade, covering ~1e-12 .. 1e+12 (values outside
// clamp into the edge buckets, zeros and negatives into an underflow
// bucket). The layout is fixed so exports are deterministic.
const (
	histBucketsPerDecade = 5
	histMinExp           = -12
	histMaxExp           = 12
	histBuckets          = (histMaxExp - histMinExp) * histBucketsPerDecade
)

// Hist is a fixed-layout log-bucketed histogram with exact count, sum,
// min and max. It retains no samples, so recording is O(1) and the
// memory footprint is constant regardless of run length. Sink.Hist
// hands out a sink's histogram as a handle.
type Hist struct {
	Name      string
	count     int64
	sum       float64
	min, max  float64
	underflow int64 // v <= 0 (or NaN)
	buckets   [histBuckets]int64
}

// histTable looks up the layout's buckets; it is derived once, here,
// from histLayout, so Add takes no logarithm.
var histTable = bucket.New(histBuckets, histLayout)

// histLayout defines the layout: the bucket of a positive value by its
// decimal logarithm, clamped into the edge buckets. Only the build of
// histTable evaluates it.
func histLayout(v float64) int {
	i := int(math.Floor((math.Log10(v) - histMinExp) * histBucketsPerDecade))
	return min(max(i, 0), histBuckets-1)
}

// histIndex returns the bucket of v > 0; +Inf lands in the top bucket.
func histIndex(v float64) int { return histTable.Index(v) }

// histUpperBound returns the inclusive upper bound of bucket i.
func histUpperBound(i int) float64 {
	return math.Pow(10, histMinExp+float64(i+1)/histBucketsPerDecade)
}

// Add records one observation.
func (h *Hist) Add(v float64) {
	if v <= 0 || math.IsNaN(v) {
		h.underflow++
		h.count++
		return
	}
	if h.count == h.underflow { // first positive observation
		h.min, h.max = v, v
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.buckets[histIndex(v)]++
	h.count++
	h.sum += v
}

// Count returns the number of observations (including underflow).
func (h *Hist) Count() int64 { return h.count }

// Mean returns the mean of positive observations (0 when empty).
func (h *Hist) Mean() float64 {
	n := h.count - h.underflow
	if n == 0 {
		return 0
	}
	return h.sum / float64(n)
}

// Min and Max bound the positive observations (0 when none).
func (h *Hist) Min() float64 { return h.min }

// Max returns the largest positive observation (0 when none).
func (h *Hist) Max() float64 { return h.max }

// Quantile returns an upper-bound estimate of the q-th quantile
// (0<=q<=1) over positive observations using the bucket upper bounds.
func (h *Hist) Quantile(q float64) float64 {
	n := h.count - h.underflow
	if n == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(n)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, b := range h.buckets {
		cum += b
		if cum >= target {
			ub := histUpperBound(i)
			if ub > h.max {
				ub = h.max
			}
			return ub
		}
	}
	return h.max
}

// Sink records an instrumented simulation run. It keeps everything it
// is given — counters, time series, histograms and event streams — and
// exports them deterministically (sorted names, insertion-ordered
// points and events) via WriteJSONL / WriteCSV. A nil *Sink means the
// run is not recorded; emitters check for nil before building fields.
//
// Recording observes and never perturbs: emitters must not sample
// randomness or schedule events on the way to a Sink method, so an
// instrumented run stays trajectory-identical to an uninstrumented one
// under the same seed.
//
// Sink is not safe for concurrent use; the simulators are
// single-threaded by design.
type Sink struct {
	manifest Manifest

	counters map[string]*Counter
	series   map[string]*Series
	hists    map[string]*Hist

	// The event store (see events.go): one row per event, one value per
	// field, over interned layouts and strings.
	rows       []eventRow
	vals       []float64
	layouts    []eventLayout
	lastLayout uint32 // the previous event's layout
	strs       []string
	strIDs     map[string]uint32
}

// NewSink returns an empty Sink.
func NewSink() *Sink {
	return &Sink{
		counters: map[string]*Counter{},
		series:   map[string]*Series{},
		hists:    map[string]*Hist{},
	}
}

// SetManifest attaches the run manifest exported as the first JSONL line.
func (s *Sink) SetManifest(m Manifest) { s.manifest = m }

// Manifest returns the attached manifest.
func (s *Sink) Manifest() Manifest { return s.manifest }

// Counter returns the handle of the named counter, creating it at
// zero when absent. A created counter is exported even if nothing is
// added to it, so resolve a handle where its first delta is added, as
// Count does. The handle stays valid for the sink's lifetime.
func (s *Sink) Counter(name string) *Counter {
	c := s.counters[name]
	if c == nil {
		c = &Counter{}
		s.counters[name] = c
	}
	return c
}

// Count adds delta to the named monotonic counter.
func (s *Sink) Count(name string, delta int64) { s.Counter(name).Add(delta) }

// CounterValue returns the current value of a counter (0 if absent).
func (s *Sink) CounterValue(name string) int64 {
	if c := s.counters[name]; c != nil {
		return c.n
	}
	return 0
}

// Series returns the handle of the named time series, creating it
// empty when absent. Like Counter, resolve it where its first point is
// added.
func (s *Sink) Series(name string) *Series {
	sr := s.series[name]
	if sr == nil {
		sr = &Series{Name: name}
		s.series[name] = sr
	}
	return sr
}

// Gauge appends an instantaneous sample (t, v) to the named time
// series. t is simulated time (or another monotone axis, e.g. access
// count for the trace-driven cache simulators).
func (s *Sink) Gauge(name string, t, v float64) { s.Series(name).Add(t, v) }

// SeriesByName returns the named time series (nil if absent).
//
//whvet:allow testonly cross-package test accessor: tests in six packages read recorded streams through it
func (s *Sink) SeriesByName(name string) *Series { return s.series[name] }

// SeriesNames returns the recorded series names, sorted.
func (s *Sink) SeriesNames() []string { return sortedKeys(s.series) }

// Hist returns the handle of the named histogram, creating it empty
// when absent. Like Counter, resolve it where its first observation is
// added.
func (s *Sink) Hist(name string) *Hist {
	h := s.hists[name]
	if h == nil {
		h = &Hist{Name: name}
		s.hists[name] = h
	}
	return h
}

// Observe adds one observation to the named histogram.
func (s *Sink) Observe(name string, v float64) { s.Hist(name).Add(v) }

// HistByName returns the named histogram (nil if absent).
//
//whvet:allow testonly cross-package test accessor: tests in six packages read recorded streams through it
func (s *Sink) HistByName(name string) *Hist { return s.hists[name] }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
