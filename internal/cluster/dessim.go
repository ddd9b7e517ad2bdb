package cluster

import (
	"fmt"
	"math"
	"math/bits"

	"warehousesim/internal/des"
	"warehousesim/internal/fanout"
	"warehousesim/internal/obs"
	"warehousesim/internal/obs/energy"
	"warehousesim/internal/obs/window"
	"warehousesim/internal/stats"
	"warehousesim/internal/workload"
)

// SimOptions controls a discrete-event simulation run.
type SimOptions struct {
	// Seed drives all randomness in the run.
	Seed uint64
	// WarmupSec of simulated time are discarded before measuring.
	WarmupSec float64
	// MeasureSec is the measurement window length.
	MeasureSec float64
	// MaxClients caps the adaptive client driver's search.
	MaxClients int

	// Parallelism is the number of worker goroutines the adaptive
	// client driver may use to run its ramp trials speculatively (each
	// trial stays single-threaded and seeded). 0 or 1 is fully
	// sequential. Results are identical for every value: speculative
	// trials reproduce the sequential seed schedule exactly and are
	// consumed in sequential order, with work beyond the sequential
	// stopping point discarded. Speculation requires a generator that
	// advertises workload.IsStateless; a stateful generator's ramp runs
	// on one worker.
	Parallelism int

	// Obs, when non-nil, receives the observability streams of the run:
	// per-request latency/QoS events, resource utilization and
	// queue-length timelines, kernel event-rate probes, and demand
	// histograms. Recording never changes the reported result: for
	// interactive workloads the adaptive search runs uninstrumented and
	// the chosen operating point is replayed once (same seed, identical
	// trajectory) with the sink attached.
	Obs *obs.Sink
	// ProbeIntervalSec is the sampling interval of the timeline probes
	// in simulated seconds; 0 means 1 s.
	ProbeIntervalSec float64

	// TraceEvery turns on causal span tracing in the instrumented run:
	// every Nth request by arrival index (1 = all, deterministic, no
	// RNG draws) records its span tree — request root, per-resource
	// queue wait and service, and the remote-memory share of cpu
	// service — on the "span" event stream of Obs. 0 disables tracing.
	TraceEvery int64
	// OnProbeTick, when non-nil, fires after every timeline-probe tick
	// of an instrumented run with the current simulated time and the
	// run's live handles — the live-introspection publish hook. It runs
	// on the goroutine that owns the collectors, so it may read them;
	// it must not change them. A rack on more than one event heap
	// rejects it: the hook rides shard 0 and would read the other
	// shards' collectors off their goroutines.
	OnProbeTick func(simNow float64, live LiveHandles)

	// Topology, when non-nil, switches Simulate from the flat
	// single-server model to the implementation's own: *ShardedTopology
	// runs one rack of enclosures on the sharded kernel (rack.go,
	// internal/des/shard); *FleetTopology runs a fleet of racks — hot
	// ones on full DES, cold ones on the analytic M/M/m stand-in —
	// joined by a load-balancer tier (fleet.go). Store a concrete
	// pointer directly; a typed-nil pointer in the interface would
	// defeat the nil check, so helpers that may return "no topology"
	// must return an untyped nil.
	Topology Topology

	// ShardDiag, when non-nil, receives the rack engine's per-shard
	// round-loop diagnostics after a *ShardedTopology run: window,
	// fired and message counters and the busy/blocked wall-clock split
	// (see shard.Engine.EmitDiagnostics). These depend on goroutine
	// scheduling, so they are kept separate from Obs — the
	// deterministic export stays byte-identical at any shard count.
	// Ignored without a Topology; a fleet run rejects it.
	ShardDiag *obs.Sink

	// SLOWindowSec, when > 0, turns on the windowed-SLO metrics plane:
	// the instrumented run additionally folds its request and
	// utilization streams into tumbling windows of this width over
	// simulated time (see internal/obs/window), the QoS episode summary
	// is emitted into Obs, and Result.SLO carries the merged collector.
	// Windowed collection rides the instrumented replay, so it requires
	// Obs and — like Obs itself — never changes the reported result or
	// the existing export streams.
	SLOWindowSec float64

	// Energy, when non-nil, turns on the time-resolved energy telemetry
	// plane: watts per tumbling window of Energy.WidthSec simulated
	// seconds, derived from Energy.Model's idle/active split (see
	// internal/obs/energy) as a view over the partition's one window
	// collector, the one the SLO plane reads. Both planes bin into that
	// collector, so with SLOWindowSec set the widths must be equal. The
	// run's energy.* totals are emitted into Obs and Result.Energy
	// carries the merged view. Like the windowed-SLO plane it rides the
	// instrumented replay — it requires Obs and never changes the
	// reported result or the existing export streams.
	Energy *energy.Config
}

// LiveHandles is what SimOptions.OnProbeTick receives: each partition's
// sink, window collector and energy view, in part order, bound once per
// run. SLO is nil when SLOWindowSec is off, Energy when Energy is. Read
// them only inside the hook, on the simulating goroutine (obs.Snapshot,
// window.LiveSnapshot and energy.LiveSnapshot render them); a caller
// that keeps them reads them again only after Simulate returns.
type LiveHandles struct {
	// Obs holds the per-partition sinks: SimOptions.Obs itself for a
	// flat run; for a Topology run the parts' own sinks, which fold
	// into Obs only when the run ends.
	Obs []*obs.Sink
	// SLO holds the per-partition window collectors (one for flat runs;
	// one per enclosure plus the rack-global part for Topology runs).
	SLO []*window.Collector
	// Energy holds the per-partition energy views in the same part
	// order as SLO.
	Energy []*energy.Collector
}

// DefaultSimOptions returns sensible defaults for validation runs.
func DefaultSimOptions() SimOptions {
	return SimOptions{Seed: 1, WarmupSec: 30, MeasureSec: 240, MaxClients: 4096}
}

// Normalize validates the options and resolves every defaulted field to
// its effective value: ProbeIntervalSec 0 becomes 1 s, Parallelism 0
// becomes 1 (sequential), and a Topology gets its own defaults filled
// in (see Topology.Normalize). It returns the resolved copy — the
// receiver is never mutated, and a non-nil Topology is replaced by a
// normalized clone rather than written through.
//
// Simulate calls Normalize on entry, so callers only need it when they
// want the effective values themselves (a CLI echoing the resolved
// probe interval, a test pinning defaults).
func (o SimOptions) Normalize() (SimOptions, error) {
	if !(o.WarmupSec >= 0) || !(o.MeasureSec > 0) || math.IsInf(o.WarmupSec+o.MeasureSec, 0) {
		return o, fmt.Errorf("cluster: invalid sim window warmup=%g measure=%g", o.WarmupSec, o.MeasureSec)
	}
	if o.MaxClients <= 0 {
		return o, fmt.Errorf("cluster: MaxClients must be positive, got %d", o.MaxClients)
	}
	if !(o.ProbeIntervalSec >= 0) || math.IsInf(o.ProbeIntervalSec, 0) {
		return o, fmt.Errorf("cluster: invalid probe interval %g", o.ProbeIntervalSec)
	}
	if o.TraceEvery < 0 {
		return o, fmt.Errorf("cluster: negative trace sampling stride %d", o.TraceEvery)
	}
	if o.Parallelism < 0 {
		return o, fmt.Errorf("cluster: negative parallelism %d", o.Parallelism)
	}
	if o.SLOWindowSec < 0 || math.IsInf(o.SLOWindowSec, 0) || math.IsNaN(o.SLOWindowSec) {
		return o, fmt.Errorf("cluster: invalid SLO window width %g", o.SLOWindowSec)
	}
	if o.Energy != nil {
		if err := o.Energy.Validate(); err != nil {
			return o, fmt.Errorf("cluster: %w", err)
		}
		if o.SLOWindowSec > 0 && o.Energy.WidthSec != o.SLOWindowSec {
			return o, fmt.Errorf("cluster: energy window %gs differs from the SLO window %gs: both planes read one window collector, so give them one width", o.Energy.WidthSec, o.SLOWindowSec)
		}
	}
	if o.ProbeIntervalSec == 0 {
		o.ProbeIntervalSec = 1
	}
	if o.Parallelism < 1 {
		o.Parallelism = 1
	}
	if o.Topology != nil {
		t := o.Topology.clone()
		if err := t.Normalize(); err != nil {
			return o, err
		}
		o.Topology = t
	}
	return o, nil
}

// memSwapFraction is the share of cpu service time attributable to
// remote-memory page swaps: CPUSec includes the (1 + MemSlowdown)
// inflation, so the swap share is MemSlowdown/(1+MemSlowdown).
func (c Config) memSwapFraction() float64 {
	if c.MemSlowdown <= 0 {
		return 0
	}
	return c.MemSlowdown / (1 + c.MemSlowdown)
}

// Simulate measures the configuration's sustained performance on the
// generator's workload with the discrete-event model.
//
// For interactive workloads it reproduces the paper's adaptive client
// driver (§2.1): ramp the number of simultaneous clients up
// exponentially until QoS breaks, then binary-search the largest client
// count that still meets QoS, and report that operating point.
//
// For batch workloads it executes one job of Profile.JobRequests tasks
// at the configured concurrency and reports 1/execution-time.
func (c Config) Simulate(gen workload.Generator, opt SimOptions) (Result, error) {
	opt, err := opt.Normalize()
	if err != nil {
		return Result{}, err
	}
	p := gen.Profile()
	if err := c.Validate(); err != nil {
		return Result{}, err
	}
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if opt.Topology != nil {
		return opt.Topology.simulate(c, gen, p, opt)
	}
	if p.Batch {
		return c.simulateBatch(gen, p, opt)
	}
	return c.simulateInteractive(gen, p, opt)
}

func (c Config) simulateInteractive(gen workload.Generator, p workload.Profile, opt SimOptions) (Result, error) {
	pt, err := newPart(opt.Obs, p, opt)
	if err != nil {
		return Result{}, err
	}

	// Exponential ramp: candidate i runs 1<<i clients (1, 2, 4, ... <=
	// MaxClients) with seed Seed+i+1, the seed the sequential counter
	// draws for it. Only a stateless generator may be sampled by
	// concurrent trials. Each worker owns a trialCtx; a worker may finish
	// candidate i+1 before i commits, so speculation needs a result slot
	// per candidate, while one worker reuses a single slot.
	dm := c.demandModelFor(p)
	cands := bits.Len(uint(opt.MaxClients))
	par := 1
	if workload.IsStateless(gen) {
		par = min(opt.Parallelism, cands)
	}
	ctxs := make([]*trialCtx, par)
	for w := range ctxs {
		ctxs[w] = newTrialCtx(c, dm)
	}
	outs := make([]Result, 1)
	if par > 1 {
		outs = make([]Result, cands)
	}

	best := Result{}
	bestSeed := uint64(0)
	record := func(t Result, s uint64) {
		if t.QoSMet && t.Throughput > best.Throughput {
			best, bestSeed = t, s
		}
	}
	lastGood, firstBad := 0, 0
	seed := opt.Seed
	i, err := fanout.Ordered(par, cands, func(w, i int) error {
		outs[i%len(outs)] = ctxs[w].run(gen, p, 1<<i, opt, opt.Seed+uint64(i)+1, part{})
		return nil
	}, func(i int) bool {
		seed = opt.Seed + uint64(i) + 1
		t := outs[i%len(outs)]
		if !t.QoSMet {
			firstBad = 1 << i
			return false
		}
		record(t, seed)
		lastGood = 1 << i
		return true
	})
	if err != nil {
		return Result{}, fmt.Errorf("cluster: ramp trial at %d clients (seed %d): %w", 1<<i, opt.Seed+uint64(i)+1, err)
	}

	// The binary search and the replay run on the first worker's ctx.
	ctx := ctxs[0]
	trial := func(n int) (Result, uint64) {
		seed++
		return ctx.run(gen, p, n, opt, seed, part{}), seed
	}
	// replay re-runs the chosen operating point with the sink
	// attached. Same seed, same trajectory: the instrumented replay's
	// outcome matches the recorded best exactly, so -obs never changes
	// the reported numbers. Only this replay feeds the window planes —
	// the search stays uninstrumented — so the window streams are a pure
	// function of the chosen operating point and the seed.
	replay := func(n int, s uint64) {
		if pt.rec == nil {
			return
		}
		ctx.run(gen, p, n, opt, s, pt)
	}

	if lastGood == 0 {
		// QoS unreachable even with one client: report best effort at a
		// moderate load, mirroring the analytic path.
		n := max(1, opt.MaxClients/8)
		res, s := trial(n)
		replay(n, s)
		res.QoSMet = false
		return res, fold(opt.Obs, &res, opt.WarmupSec+opt.MeasureSec, true, pt)
	}
	if firstBad == 0 {
		firstBad = opt.MaxClients + 1
	}

	// Binary search between lastGood and firstBad. Each probe depends on
	// the previous outcome, so this stays sequential at any Parallelism.
	lo, hi := lastGood, firstBad
	for hi-lo > max(1, lo/50) {
		mid := (lo + hi) / 2
		t, s := trial(mid)
		if t.QoSMet {
			record(t, s)
			lo = mid
		} else {
			hi = mid
		}
	}

	replay(best.Clients, bestSeed)
	return best, fold(opt.Obs, &best, opt.WarmupSec+opt.MeasureSec, true, pt)
}

// batchSlots is a board's task parallelism for batch jobs: the paper
// runs Hadoop with 4 threads per CPU core.
func (c Config) batchSlots() int { return 4 * c.Server.CPU.Cores() }

// simulateBatch executes one batch job on the flat board: a fixed set
// of task slots draws the job's tasks from the board's one stream until
// JobRequests tasks are done, and the last one stops the sim.
func (c Config) simulateBatch(gen workload.Generator, p workload.Profile, opt SimOptions) (Result, error) {
	sim := des.NewSim()
	var pop population
	dm := c.demandModelFor(p)
	b := c.flatBoard(sim, &pop)
	b.rng.Seed(opt.Seed)
	b.remaining = p.JobRequests

	// Batch runs execute exactly once, so they are instrumented inline
	// (recording observes without perturbing the trajectory). Every task
	// counts: the whole job is the measurement, and it has no QoS bound.
	pt, err := newPart(opt.Obs, p, opt)
	if err != nil {
		return Result{}, err
	}
	pop.sim = sim
	pop.dm = &dm
	pop.bind(gen, pt, opt.TraceEvery, 0)
	pop.measuring = true

	concurrency := c.batchSlots()
	pt.probe(sim, opt.ProbeIntervalSec, true, onTick(opt.OnProbeTick, pt), b.cpu, b.disk, b.net)
	var finish des.Time
	stopAtEnd := func(*board, Demands) {
		if pop.completed == p.JobRequests {
			finish = sim.Now()
			sim.Stop()
		}
	}
	for i := 0; i < concurrency && i < p.JobRequests; i++ {
		newSlot(b, stopAtEnd).launch()
	}
	sim.Run(des.Time(math.MaxFloat64))
	if pt.rec != nil {
		opt.Obs.Count("des.events", int64(sim.Fired()))
		opt.Obs.Count("trial.clients", int64(concurrency))
	}
	if pop.completed != p.JobRequests {
		return Result{}, fmt.Errorf("cluster: batch job stalled at %d/%d tasks", pop.completed, p.JobRequests)
	}

	exec := float64(finish)
	res := outcome(p, nil, p.JobRequests, exec, b.utilization(), concurrency)
	return res, fold(opt.Obs, &res, exec, true, pt)
}

// outcome is a measured run's Result. An interactive run completed
// requests over a window of measurement seconds; its latency
// percentiles and QoS verdict come from hist. A batch run's window is
// its execution time, and it has no QoS bound.
func outcome(p workload.Profile, hist *stats.Histogram, completed int, window float64, util map[string]float64, clients int) Result {
	res := Result{
		Throughput:  float64(completed) / window,
		QoSMet:      true,
		Bottleneck:  bottleneckOf(util),
		Utilization: util,
		Clients:     clients,
	}
	if p.Batch {
		res.Perf, res.ExecTime = 1/window, window
		return res
	}
	res.Perf = res.Throughput
	res.MeanLatency = hist.Mean()
	res.P95Latency = hist.Quantile(p.QoSPercentile)
	if p.QoSLatencySec > 0 {
		res.QoSMet = res.P95Latency <= p.QoSLatencySec && hist.Count() > 0
	}
	return res
}

// bottleneckOf names the busiest station, in fleetUtilKeys order. The
// memory blade is compared last, so a tie goes to cpu, disk or net as
// it always has.
func bottleneckOf(util map[string]float64) string {
	best, bestU := "", -1.0
	for _, name := range fleetUtilKeys {
		if u := util[name]; u > bestU {
			best, bestU = name, u
		}
	}
	return best
}
