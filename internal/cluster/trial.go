package cluster

import (
	"warehousesim/internal/des"
	"warehousesim/internal/obs"
	"warehousesim/internal/stats"
	"warehousesim/internal/workload"
)

// This file is the flat model's trial engine behind Config.Simulate: a
// trialCtx owns one Sim and one flat board and is reused across the
// trials of an adaptive search via Sim.Reset/Resource.Reset, so the
// event heap, pools, and client records (board.go) amortize across the
// whole search.

// trialCtx owns the reusable simulation state of one adaptive search:
// the kernel, the flat board, the request population, and the
// client records. One ctx serves one trial at a time; concurrent trials
// (the speculative parallel ramp) each use their own ctx.
type trialCtx struct {
	sim *des.Sim
	b   *board

	pop     population
	rootRNG stats.RNG
	dm      demandModel

	clients []*client
}

// newTrialCtx builds the ctx for one search of c; dm is c's demand model
// for the searched profile.
func newTrialCtx(c Config, dm demandModel) *trialCtx {
	t := &trialCtx{dm: dm}
	t.sim = des.NewSim()
	t.b = c.flatBoard(t.sim, &t.pop)
	t.pop.sim = t.sim
	t.pop.dm = &t.dm
	t.pop.hist = stats.NewLatencyHistogram()
	return t
}

// run simulates nClients closed-loop clients and measures sustained
// throughput and latency percentiles over the measurement window. With a
// non-nil sink it also emits the per-request event stream, feeds tel's
// window planes and attaches the kernel/resource timeline probes;
// recording only observes, so the outcome is identical to an
// uninstrumented trial at the same seed.
func (t *trialCtx) run(gen workload.Generator, p workload.Profile, nClients int, opt SimOptions, seed uint64, rec *obs.Sink, tel planes) Result {
	t.sim.Reset()
	t.b.cpu.Reset()
	t.b.disk.Reset()
	t.b.net.Reset()
	t.rootRNG.Seed(seed)
	pop := &t.pop
	pop.hist.Reset()
	pop.think = stats.Exponential{Mean: p.ThinkTimeSec}
	pop.qosBound = p.QoSLatencySec
	pop.bind(gen, rec, tel.win, opt.TraceEvery, 0)

	for len(t.clients) < nClients {
		t.clients = append(t.clients, newClient(t.b))
	}
	for i := 0; i < nClients; i++ {
		cl := t.clients[i]
		cl.rng.Seed(t.rootRNG.Uint64())
		// Stagger initial arrivals across one think time to avoid a
		// synchronized thundering herd at t=0.
		t.sim.Schedule(des.Time(t.rootRNG.Float64()*(p.ThinkTimeSec+0.01)), cl.startFn)
	}

	var probes *des.Probes
	if pop.rec != nil {
		probes = des.NewProbes(t.sim, rec, des.Time(opt.ProbeIntervalSec))
		probes.Watch(t.b.cpu, t.b.disk, t.b.net)
		probes.OnTick = onTick(opt.OnProbeTick, tel)
		tel.watch(probes)
		probes.Start()
	}

	t.sim.Run(des.Time(opt.WarmupSec))
	pop.measuring = true
	t.b.cpu.ResetWindow()
	t.b.disk.ResetWindow()
	t.b.net.ResetWindow()
	t.sim.Run(des.Time(opt.WarmupSec + opt.MeasureSec))
	if pop.rec != nil {
		probes.Stop()
		rec.Count("des.events", int64(t.sim.Fired()))
		rec.Count("trial.clients", int64(nClients))
	}

	return outcome(p, pop.hist, pop.completed, opt.MeasureSec, t.b.utilization(), nClients)
}
