package cluster

import (
	"warehousesim/internal/des"
	"warehousesim/internal/obs"
	"warehousesim/internal/obs/span"
	"warehousesim/internal/obs/window"
	"warehousesim/internal/stats"
	"warehousesim/internal/workload"
)

// population is the request lifecycle both engines share: it samples
// and numbers each request, accounts its completion, records the
// per-request event stream, and owns the span tracer. The flat trial,
// the flat batch job and every rack enclosure each own one; their
// issuers (closed-loop clients, batch task slots) only drive their own
// station pipeline between next and done, and emit the request's span
// tree at completion when next said it was sampled.
type population struct {
	sim   *des.Sim
	gen   workload.Generator
	dm    *demandModel
	think stats.Exponential
	// hist is nil for batch jobs, which report execution time instead
	// of a latency distribution.
	hist *stats.Histogram

	measuring bool
	completed int
	arrivals  int64
	base      int64 // request numbers and span ids start above base

	// recording state, zeroed for uninstrumented runs.
	rec      *obs.Sink         // nil when the run is not recorded
	h        recHandles        // into rec
	win      *window.Collector // nil when the window planes are off
	qosBound float64
	tracer   *span.Tracer
	evFields [3]obs.Field // scratch row for the per-request event stream
}

// recHandles are a population's handles into its sink. Each is
// resolved where it is first written, so the sink gains an entry
// exactly where a named call would have created one: no export holds
// an empty "qos_violations" counter of a run that never violated.
type recHandles struct {
	demand     [5]*obs.Hist // resolved with samples, by the first request
	samples    *obs.Counter
	requests   *obs.Counter // resolved with latency, by the first completion
	latency    *obs.Hist
	violations *obs.Counter // resolved by the first QoS violation
}

// bind starts a run: it zeroes the counters and attaches the run's
// generator, sink and window collector. With a non-nil sink every
// request's demands and completion are recorded, and completions feed
// win when the window planes are on; with traceEvery > 0 it also gets
// a tracer. Span ids and request numbers both start above base, so
// partitioned models that give each part a disjoint base stay unique
// after the parts merge. The tracer stays nil otherwise, and every tracer method no-ops
// on nil, so the untraced path pays one nil check per request. The
// previous run's sink handles are dropped, so a rebound population
// never writes into an earlier sink.
func (p *population) bind(gen workload.Generator, rec *obs.Sink, win *window.Collector, traceEvery, base int64) {
	p.measuring, p.completed, p.arrivals, p.base = false, 0, 0, base
	p.gen, p.rec, p.h, p.win, p.tracer = gen, rec, recHandles{}, win, nil
	if rec != nil && traceEvery > 0 {
		p.tracer = span.NewTracerAt(rec, traceEvery, base)
	}
}

// wait runs issue after one think time drawn from rng, or at once when
// the population does not think.
//
//perf:hotpath
func (p *population) wait(rng *stats.RNG, issue des.Action) {
	if p.think.Mean > 0 {
		p.sim.Schedule(des.Time(p.think.Sample(rng)), issue)
		return
	}
	issue()
}

// next samples one request from rng and numbers it: its demands, its
// request number, and whether the tracer keeps its span tree (sampling
// goes by arrival index, so it does not depend on base). A non-nil
// sink observes the sampled demand vector into the "demand."
// histograms; that reads the sample and draws nothing, so recording
// never changes the request stream.
//
//perf:hotpath
func (p *population) next(rng *stats.RNG) (d Demands, req int64, traced bool) {
	r := p.gen.Sample(rng)
	if p.rec != nil {
		h := &p.h
		if h.samples == nil {
			h.demand = [5]*obs.Hist{
				p.rec.Hist("demand.cpu_ref_sec"), p.rec.Hist("demand.disk_ops"),
				p.rec.Hist("demand.disk_read_bytes"), p.rec.Hist("demand.disk_write_bytes"),
				p.rec.Hist("demand.net_bytes"),
			}
			h.samples = p.rec.Counter("demand.samples")
		}
		h.demand[0].Add(r.CPURefSec)
		h.demand[1].Add(r.DiskOps)
		h.demand[2].Add(r.DiskReadBytes)
		h.demand[3].Add(r.DiskWriteBytes)
		h.demand[4].Add(r.NetBytes)
		h.samples.Add(1)
	}
	d = p.dm.For(r)
	traced = p.tracer.Sampled(p.arrivals)
	req = p.base + p.arrivals
	p.arrivals++
	return d, req, traced
}

// done accounts one request, issued at start, completing now: the
// latency histogram and completion count inside the measurement
// window, and with a non-nil sink the request counters, the latency
// histogram, the "request" event and the window planes.
//
//perf:hotpath
func (p *population) done(start des.Time) {
	now := p.sim.Now()
	latency := float64(now - start)
	if p.measuring {
		p.completed++
		if p.hist != nil {
			p.hist.Add(latency)
		}
	}
	if p.rec == nil {
		return
	}
	violation := p.qosBound > 0 && latency > p.qosBound
	h := &p.h
	if h.requests == nil {
		h.requests, h.latency = p.rec.Counter("requests"), p.rec.Hist("latency_sec")
	}
	h.requests.Add(1)
	if violation {
		if h.violations == nil {
			h.violations = p.rec.Counter("qos_violations")
		}
		h.violations.Add(1)
	}
	h.latency.Add(latency)
	p.evFields[0] = obs.F("latency_sec", latency)
	p.evFields[1] = obs.FB("qos_violation", violation)
	p.evFields[2] = obs.FB("measured", p.measuring)
	p.rec.Event("request", float64(now), p.evFields[:]...)
	if p.win != nil {
		p.win.ObserveLatency(float64(now), latency, violation)
	}
}

// emitStage records the queue and service spans of one station stage
// of request req under root: submitted at submit, completed at done
// after svc of service. Queue wait is recovered without touching the
// resource hot path: FIFO service is non-preemptive, so service began
// at done-svc and everything between submit and that instant was
// queueing. With frac > 0, a swap span covering that share of the
// service is nested under it.
func emitStage(tr *span.Tracer, root, req int64, res string, submit, done des.Time, svc, frac float64) {
	end := float64(done)
	began := end - svc
	tr.Emit(root, req, span.KindQueue, res, float64(submit), began)
	sid := tr.Emit(root, req, span.KindService, res, began, end)
	if frac > 0 {
		tr.Emit(sid, req, span.KindSwap, "memblade", began, began+svc*frac)
	}
}
