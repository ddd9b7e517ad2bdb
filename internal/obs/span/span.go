// Package span is the causal-tracing layer on top of internal/obs: a
// deterministic span model threaded through the request lifecycle —
// request arrival, per-resource queue wait, service, memory-blade page
// swap (with critical-block-first sub-spans), SAN round trip — plus the
// consumers that turn recorded spans into artifacts: a
// Chrome-trace-event/Perfetto JSON exporter (WriteTrace) and a
// critical-path latency-attribution analyzer (Analyze).
//
// Spans ride the existing *obs.Sink seam as events on the "span"
// stream, so everything the obs layer guarantees carries over: the
// disabled path is allocation-free (a nil *Tracer no-ops every method
// behind a pointer check), recording never perturbs the simulation (no
// RNG draws, no scheduled events), and exports are byte-identical
// across same-seed runs (deterministic IDs, fixed field order,
// insertion-ordered emission). The simulators emit each request's tree
// at completion, from the stage boundary times they kept, so every
// exported tree is complete: requests still in flight at the horizon
// emit nothing.
//
// Sampling is deterministic too: a Tracer created with every=N keeps
// the span tree of every Nth request by arrival index — no coin flips —
// which keeps full-fidelity traces affordable at millions of requests
// while remaining reproducible.
package span

import (
	"warehousesim/internal/obs"
)

// Stream is the obs event stream that carries span records.
const Stream = "span"

// Span kinds. Kinds drive both the Perfetto category and the
// attribution bucket a span lands in (see Analyze).
const (
	// KindRequest is the root span of one request: arrival (or service
	// start for closed-loop clients) to completion.
	KindRequest = "request"
	// KindQueue is time spent waiting for a free server at a resource.
	KindQueue = "queue"
	// KindService is time occupying a server at a resource.
	KindService = "service"
	// KindSwap is a remote-memory page transfer over the blade link.
	KindSwap = "swap"
	// KindCBF is the critical-block-first sub-span of a swap: the
	// faulting access resumes when the needed block arrives.
	KindCBF = "cbf"
	// KindStorage is a SAN storage round trip.
	KindStorage = "storage"
)

// Span is one decoded span record.
type Span struct {
	// ID is the tracer-assigned identifier (1-based, dense, in Emit
	// order). Parent is the enclosing span's ID, 0 for roots.
	ID, Parent int64
	// Req numbers the request the span belongs to: its arrival index
	// (access index for the trace-driven simulators), offset by the
	// part's base in partitioned models so numbers stay unique.
	Req int64
	// Kind is one of the Kind* constants; Res names the resource or
	// link ("cpu", "disk", "net", "memblade", "flash", "san", ...).
	Kind, Res string
	// Start and Dur are in the run's time axis units (simulated seconds
	// for DES runs; access index for trace replays).
	Start, Dur float64
}

// Tracer records completed spans into an *obs.Sink with
// deterministic IDs and deterministic every-Nth-request sampling. The
// zero of the type is not used: NewTracer returns nil for a nil sink, and every method no-ops on a nil receiver, so call sites
// need no guards and the disabled path allocates nothing.
type Tracer struct {
	rec    *obs.Sink
	every  int64
	nextID int64

	// buf is the emit scratch buffer: span fields are assembled here and
	// handed to Sink.Event, which does not retain them — so
	// steady-state emission allocates nothing.
	buf [6]obs.Field
}

// NewTracer returns a tracer emitting into rec, keeping every Nth
// request by arrival index (every <= 1 keeps all). A nil sink yields a
// nil tracer, which is safe to use.
func NewTracer(rec *obs.Sink, every int64) *Tracer {
	if rec == nil {
		return nil
	}
	if every < 1 {
		every = 1
	}
	return &Tracer{rec: rec, every: every}
}

// NewTracerAt is NewTracer with an explicit ID base: the first span
// gets base+1. Partitioned models (the sharded rack) give each part a
// tracer with a disjoint base — and number its requests from the same
// base — so span IDs and request numbers stay unique, and identical at
// every partitioning, after the parts are merged.
func NewTracerAt(rec *obs.Sink, every, base int64) *Tracer {
	t := NewTracer(rec, every)
	if t != nil {
		t.nextID = base
	}
	return t
}

// Sampled reports whether the request with the given arrival index is
// kept by the sampling rule (index % every == 0). Always false on a
// nil tracer, so it doubles as the hot-path guard.
func (t *Tracer) Sampled(reqIndex int64) bool {
	return t != nil && reqIndex%t.every == 0
}

// Emit records a completed span and returns its ID (0 on a nil
// tracer). Negative durations from floating-point cancellation clamp
// to zero; zero-duration spans are kept — they mark instantaneous
// stages (an empty queue, a zero-byte transfer) that the attribution
// still wants to see. Field order is fixed (id, parent, req, kind, res,
// dur) so Decode and the exporters see a stable layout.
func (t *Tracer) Emit(parent, req int64, kind, res string, start, end float64) int64 {
	if t == nil {
		return 0
	}
	t.nextID++
	t.buf = [...]obs.Field{
		obs.F("id", float64(t.nextID)), obs.F("parent", float64(parent)),
		obs.F("req", float64(req)), obs.FS("kind", kind), obs.FS("res", res),
		obs.F("dur", clampDur(start, end))}
	t.rec.Event(Stream, start, t.buf[:]...)
	return t.nextID
}

func clampDur(start, end float64) float64 {
	if end < start {
		return 0
	}
	return end - start
}

// Decode parses an obs event record back into a Span. ok is false when
// the record is not from the span stream.
func Decode(e obs.EventRecord) (s Span, ok bool) {
	if e.Stream != Stream {
		return Span{}, false
	}
	s.Start = e.T
	for _, f := range e.Fields {
		switch f.Key {
		case "id":
			s.ID = int64(f.Num)
		case "parent":
			s.Parent = int64(f.Num)
		case "req":
			s.Req = int64(f.Num)
		case "kind":
			s.Kind = f.Str
		case "res":
			s.Res = f.Str
		case "dur":
			s.Dur = f.Num
		}
	}
	return s, true
}

// Decoded returns all spans recorded in src, in emission order.
func Decoded(src *obs.Sink) []Span {
	var out []Span
	src.EachEvent(func(e obs.EventRecord) {
		if s, ok := Decode(e); ok {
			out = append(out, s)
		}
	})
	return out
}
