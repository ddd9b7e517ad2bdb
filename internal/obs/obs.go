// Package obs is the simulation observability layer: counters, gauges
// (time-series probes), histograms, and structured per-request event
// streams behind a Recorder interface, plus a run Manifest describing
// the measurement conditions and JSONL/CSV exporters.
//
// The package is deliberately zero-dependency (stdlib only) so that any
// simulator layer — the DES kernel, the cluster models, the memory-blade
// and flash-cache simulators, the workload engines — can accept a
// Recorder without import cycles.
//
// Hot paths are instrumented against a nil-able Recorder: callers guard
// emission with On(rec), which is a nil check plus one interface call,
// so a disabled run costs nothing measurable (and allocates nothing,
// since Field construction sits behind the guard). Nop is provided for
// call sites that want a non-nil recorder that discards everything.
package obs

// Recorder receives observations from an instrumented simulation run.
//
// All methods must be cheap and must not perturb the simulation:
// recording may allocate but must never sample randomness or schedule
// events, so an instrumented run stays trajectory-identical to an
// uninstrumented one under the same seed.
type Recorder interface {
	// Enabled reports whether observations are being kept. Hot paths
	// should use On(rec) instead of calling this directly.
	Enabled() bool
	// Count adds delta to the named monotonic counter.
	Count(name string, delta int64)
	// Gauge appends an instantaneous sample (t, v) to the named time
	// series. t is simulated time (or another monotone axis, e.g. access
	// count for the trace-driven cache simulators).
	Gauge(name string, t, v float64)
	// Observe adds one observation to the named histogram.
	Observe(name string, v float64)
	// Event appends a structured record at time t to the named stream.
	// The fields slice is only valid for the duration of the call: hot
	// paths pass a reused scratch buffer, so an implementation that
	// keeps fields past the call must copy them. Sink stores each event
	// as a row over an interned layout of its stream and keys, one
	// float64 per field, with string values as indices into an interned
	// string table.
	Event(stream string, t float64, fields ...Field)
}

// On reports whether rec is non-nil and enabled — the guard every hot
// path uses before constructing Fields or calling Recorder methods.
func On(rec Recorder) bool { return rec != nil && rec.Enabled() }

// Field is one key/value pair of an event record. Values are either
// numeric or string; numeric is the common case on hot streams.
type Field struct {
	Key   string
	Num   float64
	Str   string
	IsStr bool
}

// F makes a numeric field.
func F(key string, v float64) Field { return Field{Key: key, Num: v} }

// FB makes a 0/1 field from a bool (booleans stay numeric so CSV and
// JSONL rows keep a uniform value type).
func FB(key string, v bool) Field {
	if v {
		return Field{Key: key, Num: 1}
	}
	return Field{Key: key, Num: 0}
}

// FS makes a string field.
func FS(key, v string) Field { return Field{Key: key, Str: v, IsStr: true} }

// Nop is a Recorder that discards everything. Enabled returns false, so
// On(Nop{}) guards skip Field construction entirely.
type Nop struct{}

// Enabled implements Recorder.
func (Nop) Enabled() bool { return false }

// Count implements Recorder.
func (Nop) Count(string, int64) {}

// Gauge implements Recorder.
func (Nop) Gauge(string, float64, float64) {}

// Observe implements Recorder.
func (Nop) Observe(string, float64) {}

// Event implements Recorder.
func (Nop) Event(string, float64, ...Field) {}
