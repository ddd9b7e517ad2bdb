// Package obs is the simulation observability layer: counters, gauges
// (time-series probes), histograms, and structured per-request event
// streams kept by one in-memory store, *Sink, plus a run Manifest
// describing the measurement conditions and JSONL/CSV exporters.
//
// The package imports only the standard library and the stdlib-only
// leaf package bucket, so that any simulator layer — the DES kernel,
// the cluster models, the memory-blade and flash-cache simulators, the
// workload engines — can accept a *Sink without import cycles.
//
// A nil *Sink means "not recording": hot paths guard emission with
// rec != nil, so a disabled run costs one pointer check and allocates
// nothing, since Field construction sits behind the guard. A recorded
// hot path resolves each counter, histogram and series it writes into
// a handle once (Sink.Counter, Sink.Hist, Sink.Series), where it is
// first written, and adds through the handle, so a recorded request or
// probe tick looks up no name; a histogram finds its bucket in a table,
// not by a logarithm.
package obs

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
