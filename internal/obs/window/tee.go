package window

import (
	"strings"

	"warehousesim/internal/obs"
)

// Tee is an obs.Recorder that forwards everything to an inner recorder
// unchanged and additionally routes the streams the window model
// understands into its collectors:
//
//   - "request" events feed the latency histogram and violation counts
//     (fields "latency_sec" and "qos_violation", the cluster models'
//     per-request row);
//   - "util.<resource>" gauges feed per-resource-class utilization
//     (the class is the resource name's first dot-separated component,
//     so "util.cpu.e3.b1" lands in class "cpu").
//
// Wrapping the recorder instead of instrumenting every call site keeps
// the window plane a pure stream consumer: recording call sites do not
// change, the inner recorder sees the exact same sequence, and the
// deterministic export is untouched. One tee serves every windowed
// plane of a partition — the SLO collector and, when the energy plane
// bins at another width, the collector its view reads (see
// internal/obs/energy) — so each stream is parsed once however many
// collectors it feeds.
type Tee struct {
	inner obs.Recorder
	cs    []*Collector
}

// NewTee wraps inner so that every non-nil collector in cs sees the
// window streams; with none it returns inner unchanged. A collector
// listed twice is fed twice, so pass a shared collector once.
func NewTee(inner obs.Recorder, cs ...*Collector) obs.Recorder {
	var fed []*Collector
	for _, c := range cs {
		if c != nil {
			fed = append(fed, c)
		}
	}
	if len(fed) == 0 {
		return inner
	}
	return &Tee{inner: inner, cs: fed}
}

// Enabled implements obs.Recorder.
func (t *Tee) Enabled() bool { return t.inner.Enabled() }

// Count implements obs.Recorder.
func (t *Tee) Count(name string, delta int64) { t.inner.Count(name, delta) }

// Gauge implements obs.Recorder.
func (t *Tee) Gauge(name string, at, v float64) {
	t.inner.Gauge(name, at, v)
	rest, ok := strings.CutPrefix(name, "util.")
	if !ok {
		return
	}
	class := rest
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		class = rest[:i]
	}
	for _, c := range t.cs {
		c.SampleUtil(class, at, v)
	}
}

// Observe implements obs.Recorder.
func (t *Tee) Observe(name string, v float64) { t.inner.Observe(name, v) }

// Event implements obs.Recorder.
func (t *Tee) Event(stream string, at float64, fields ...obs.Field) {
	t.inner.Event(stream, at, fields...)
	if stream != "request" {
		return
	}
	latency, violation := 0.0, false
	for _, f := range fields {
		switch f.Key {
		case "latency_sec":
			latency = f.Num
		case "qos_violation":
			violation = f.Num != 0
		}
	}
	for _, c := range t.cs {
		c.ObserveLatency(at, latency, violation)
	}
}
