package cluster

import (
	"warehousesim/internal/des"
	"warehousesim/internal/obs"
	"warehousesim/internal/obs/span"
	"warehousesim/internal/stats"
	"warehousesim/internal/workload"
)

// This file is the allocation-light trial engine behind Config.Simulate.
//
// The continuation-passing style of the DES kernel originally paid for
// itself in closures: every request allocated an issue closure, a
// completion closure, and three per-stage closures. The records below
// hoist all of that captured state into structs whose continuation
// Actions are bound once, when the record is created, and reused for
// every subsequent request — so the steady-state request path allocates
// nothing. A trialCtx owns one Sim and one server binding and is reused
// across the trials of an adaptive search via Sim.Reset/Resource.Reset,
// so the event heap, pools, and client records amortize across the
// whole search.
//
// Every method mirrors the retired closure bodies statement for
// statement: the same RNG draw order, the same Submit calls, the same
// recorder emission order. Same-seed trajectories — and therefore obs
// and attribution exports — are byte-identical to the pre-pool
// implementation (the cluster and span golden tests pin this).

// reqFlow walks one request through cpu -> disk -> net with bound-once
// continuations. A flow belongs to exactly one issuer (a closed-loop
// client or a batch task slot), which owns it for the request's whole
// lifetime; finish fires at completion.
type reqFlow struct {
	srv    *simServer
	finish des.Action

	d      Demands
	start  des.Time
	req    int64
	traced bool
	// stage boundary times, kept for span emission at completion.
	tCPU, tDisk des.Time

	cpuFn, diskFn des.Action
}

func (f *reqFlow) init(srv *simServer, finish des.Action) {
	f.srv = srv
	f.finish = finish
	f.cpuFn = f.cpuDone
	f.diskFn = f.diskDone
}

// serve runs request req through cpu -> disk -> net; finish fires when
// the net stage completes.
//
//perf:hotpath
func (f *reqFlow) serve(d Demands, req int64, traced bool) {
	f.d, f.req, f.traced = d, req, traced
	f.start = f.srv.sim.Now()
	f.srv.cpu.Submit(des.Time(d.CPUSec), f.cpuFn)
}

//perf:hotpath
func (f *reqFlow) cpuDone() {
	f.tCPU = f.srv.sim.Now()
	f.srv.disk.Submit(des.Time(f.d.DiskSec), f.diskFn)
}

//perf:hotpath
func (f *reqFlow) diskDone() {
	f.tDisk = f.srv.sim.Now()
	f.srv.net.Submit(des.Time(f.d.NetSec), f.finish)
}

// emitSpans records the completed request's span tree: a root request
// span plus a queue and a service span per station, with the
// remote-memory share of cpu service nested under it as a swap span
// (the §3.4 slowdown is folded into CPUSec; the span makes it
// attributable again).
func (f *reqFlow) emitSpans(tr *span.Tracer) {
	s := f.srv
	end := s.sim.Now()
	root := tr.Emit(0, f.req, span.KindRequest, "request", float64(f.start), float64(end))
	emitStage(tr, root, f.req, s.cpu.Name(), f.start, f.tCPU, f.d.CPUSec, s.memFrac)
	emitStage(tr, root, f.req, s.disk.Name(), f.tCPU, f.tDisk, f.d.DiskSec, 0)
	emitStage(tr, root, f.req, s.net.Name(), f.tDisk, end, f.d.NetSec, 0)
}

// client is one closed-loop client: think, issue, await completion,
// repeat. Records persist across the trials of a trialCtx; run reseeds
// the embedded RNG per trial, exactly reproducing the retired
// rng.Split() stream.
type client struct {
	pop  *population
	rng  stats.RNG
	flow reqFlow

	startFn des.Action // the staggered first wake-up (== start)
	issueFn des.Action
}

func newClient(t *trialCtx) *client {
	c := &client{pop: &t.pop}
	c.flow.init(t.srv, c.finished)
	c.startFn = c.start
	c.issueFn = c.issue
	return c
}

//perf:hotpath
func (c *client) start() { c.pop.wait(&c.rng, c.issueFn) }

//perf:hotpath
func (c *client) issue() { c.flow.serve(c.pop.next(&c.rng)) }

//perf:hotpath
func (c *client) finished() {
	c.pop.done(c.flow.start)
	if c.flow.traced {
		c.flow.emitSpans(c.pop.tracer)
	}
	c.pop.wait(&c.rng, c.issueFn)
}

// trialCtx owns the reusable simulation state of one adaptive search:
// the kernel, the server binding, the request population, and the
// client records. One ctx serves one trial at a time; concurrent trials
// (the speculative parallel ramp) each use their own ctx.
type trialCtx struct {
	cfg Config
	sim *des.Sim
	srv *simServer

	pop     population
	rootRNG stats.RNG
	dm      demandModel

	clients []*client
}

func newTrialCtx(c Config) *trialCtx {
	t := &trialCtx{cfg: c}
	t.sim = des.NewSim()
	t.srv = c.newSimServer(t.sim)
	t.pop.sim = t.sim
	t.pop.dm = &t.dm
	t.pop.hist = stats.NewLatencyHistogram()
	return t
}

// run simulates nClients closed-loop clients and measures sustained
// throughput and latency percentiles over the measurement window. With a
// live recorder it also emits the per-request event stream and attaches
// the kernel/resource timeline probes; recording only observes, so the
// outcome is identical to an uninstrumented trial at the same seed.
func (t *trialCtx) run(gen workload.Generator, p workload.Profile, nClients int, opt SimOptions, seed uint64, rec obs.Recorder) trialOutcome {
	t.sim.Reset()
	t.srv.cpu.Reset()
	t.srv.disk.Reset()
	t.srv.net.Reset()
	t.rootRNG.Seed(seed)
	t.dm = t.cfg.demandModelFor(p)
	pop := &t.pop
	pop.hist.Reset()
	pop.think = stats.Exponential{Mean: p.ThinkTimeSec}
	pop.qosBound = p.QoSLatencySec
	pop.bind(gen, rec, opt.TraceEvery, 0)

	for len(t.clients) < nClients {
		t.clients = append(t.clients, newClient(t))
	}
	for i := 0; i < nClients; i++ {
		cl := t.clients[i]
		cl.rng.Seed(t.rootRNG.Uint64())
		// Stagger initial arrivals across one think time to avoid a
		// synchronized thundering herd at t=0.
		t.sim.Schedule(des.Time(t.rootRNG.Float64()*(p.ThinkTimeSec+0.01)), cl.startFn)
	}

	var probes *des.Probes
	if pop.recording {
		probes = des.NewProbes(t.sim, rec, des.Time(opt.ProbeIntervalSec))
		probes.Watch(t.srv.cpu, t.srv.disk, t.srv.net)
		probes.OnTick = opt.OnProbeTick
		probes.Start()
	}

	t.sim.Run(des.Time(opt.WarmupSec))
	pop.measuring = true
	t.srv.cpu.ResetWindow()
	t.srv.disk.ResetWindow()
	t.srv.net.ResetWindow()
	t.sim.Run(des.Time(opt.WarmupSec + opt.MeasureSec))
	if pop.recording {
		probes.Stop()
		rec.Count("des.events", int64(t.sim.Fired()))
		rec.Count("trial.clients", int64(nClients))
	}

	out := trialOutcome{
		throughput:  float64(pop.completed) / opt.MeasureSec,
		meanLatency: pop.hist.Mean(),
		p95Latency:  pop.hist.Quantile(p.QoSPercentile),
		utilization: map[string]float64{
			"cpu":  t.srv.cpu.Utilization(),
			"disk": t.srv.disk.Utilization(),
			"net":  t.srv.net.Utilization(),
		},
	}
	if p.QoSLatencySec > 0 {
		out.qosMet = out.p95Latency <= p.QoSLatencySec && pop.hist.Count() > 0
	} else {
		out.qosMet = true
	}
	return out
}
