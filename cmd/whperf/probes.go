package main

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
	"time"

	"warehousesim/experiments"
	"warehousesim/internal/cluster"
	"warehousesim/internal/des"
	"warehousesim/internal/flashcache"
	"warehousesim/internal/memblade"
	"warehousesim/internal/obs"
	"warehousesim/internal/obs/energy"
	"warehousesim/internal/stats"
	"warehousesim/internal/trace"
	"warehousesim/internal/workload"
	"warehousesim/internal/workload/websearch"
)

// probeReps is how many times a probe repeats a timing; it reports the
// median.
const probeReps = 3

// countingGen is workload.FixedGenerator with a count of the requests
// sampled. It keeps Stateless, so the speculative ramp and the sharded
// rack run exactly as they do on the bare generator.
type countingGen struct {
	workload.FixedGenerator
	n *atomic.Int64
}

func (g countingGen) Sample(r *stats.RNG) workload.Request {
	g.n.Add(1)
	return g.FixedGenerator.Sample(r)
}

// prober runs the layer probes. Each probe calls one layer through its
// public functions, inside a span, and times it from outside.
type prober struct {
	k  knobs
	tr *tracer
	ck *checker
	m  map[string]float64
	// suiteGolden is the golden digest of the twelve paper artifacts'
	// reports; "" skips the check.
	suiteGolden string
}

// runProbes runs every probe and returns the per-layer metrics (all but
// the runtime ones, which come from the traced workload's own loops). A
// probe that fails counts as a failed op and leaves its metrics out.
func runProbes(k knobs, tr *tracer, ck *checker, suiteGolden string) map[string]float64 {
	p := &prober{k: k, tr: tr, ck: ck, m: map[string]float64{}, suiteGolden: suiteGolden}
	for _, pr := range []struct {
		name string
		run  func() error
	}{
		{"des", p.des},
		{"ladder", p.ladder},
		{"shard", p.shard},
		{"cluster", p.cluster},
		{"fleet", p.fleet},
		{"workload", p.sample},
		{"memblade", p.memblade},
		{"flashcache", p.flashcache},
		{"core", p.core},
		{"experiments", p.experiments},
	} {
		if err := tr.do("probe."+pr.name, pr.run); err != nil {
			ck.fail("probe "+pr.name, err)
			continue
		}
		ck.attempted++
	}
	return p.m
}

// timed runs fn probeReps times and returns the median seconds.
func timed(fn func() error) (float64, error) {
	var sec []float64
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		sec = append(sec, time.Since(t0).Seconds())
	}
	return median(sec), nil
}

// perOpNs is the median, over probeReps runs of fn, of host
// nanoseconds per unit of work; fn returns how many units it did.
func perOpNs(fn func() int64) float64 {
	var ns []float64
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		n := fn()
		ns = append(ns, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(ns)
}

// loops scales a probe's iteration count down in quick mode.
func (p *prober) loops(n int) int {
	if p.k.quick {
		return n / 64
	}
	return n
}

// des times the kernel alone: null-action events that reschedule
// themselves (64 chains, so the heap holds as many events as a loaded
// trial), and Resource.Submit to completion with 8 jobs on 4 servers.
func (p *prober) des() error {
	n := uint64(p.loops(1 << 20))
	p.m["des.event_ns"] = perOpNs(func() int64 {
		sim := des.NewSim()
		for c := 0; c < 64; c++ {
			delay := des.Time(1 + float64(c)/64)
			var act des.Action
			act = func() {
				if sim.Fired() < n {
					sim.Schedule(delay, act)
				}
			}
			sim.Schedule(delay, act)
		}
		sim.Run(des.Time(math.MaxFloat64))
		return int64(sim.Fired())
	})
	p.m["des.resource_op_ns"] = perOpNs(func() int64 {
		sim := des.NewSim()
		r := des.NewResource(sim, "cpu", 4)
		var next des.Action
		next = func() {
			if r.Completed() < n {
				r.Submit(0.001, next)
			}
		}
		for i := 0; i < 8; i++ {
			r.Submit(0.001, next)
		}
		sim.Run(des.Time(math.MaxFloat64))
		return int64(r.Completed())
	})
	return nil
}

// flatCell is desk on websearch, the flat model's probe cell.
func (p *prober) flatCell() (cluster.Config, workload.Profile, cluster.SimOptions, error) {
	ev := newEvaluator(p.tr)
	d := searchDesigns()[1]
	prof := workload.WebsearchProfile()
	cfg, err := clusterConfig(p.tr, ev, d, prof)
	o := cluster.DefaultSimOptions()
	o.MeasureSec = 120
	if p.k.quick {
		o.MeasureSec = 5
	}
	return cfg, prof, o, err
}

// ladder runs the flat cell and the 16x8 rack at 1 shard one plane at a
// time: plain, +obs sink, +1 s SLO windows, +1 s energy windows,
// +span tracing of every request. It also costs the three exports of
// the full rack run and counts events per request.
func (p *prober) ladder() error {
	flatCfg, prof, flatOpts, err := p.flatCell()
	if err != nil {
		return err
	}
	rs, err := newRackShape(p.k, p.tr)
	if err != nil {
		return err
	}
	model, err := energyModel(p.tr, rs.ev, rs.d)
	if err != nil {
		return err
	}
	rackOpts := rs.opts
	rackOpts.Topology = rs.rack(p.k, 1)

	for _, topo := range []struct {
		name string
		cfg  cluster.Config
		opts cluster.SimOptions
	}{{"flat", flatCfg, flatOpts}, {"rack", rs.cfg, rackOpts}} {
		var last cluster.Result
		var lastSink *obs.Sink
		for _, step := range ladderSteps {
			o := topo.opts
			var sec, mb []float64
			for r := 0; r < probeReps; r++ {
				if step != "plain" {
					lastSink = obs.NewSink()
					o.Obs = lastSink
				}
				switch step {
				case "trace":
					o.TraceEvery = 1
					fallthrough
				case "energy":
					o.Energy = &energy.Config{WidthSec: 1, Model: model}
					fallthrough
				case "slo":
					o.SLOWindowSec = 1
				}
				a0 := allocBytes()
				t0 := time.Now()
				res, err := simulate(p.tr, topo.cfg, workload.FixedGenerator{P: prof}, o)
				sec = append(sec, time.Since(t0).Seconds())
				mb = append(mb, float64(allocBytes()-a0)/1e6)
				if err != nil {
					return err
				}
				last = res
			}
			key := "ladder." + topo.name + "." + step
			p.m[key+"_s"] = median(sec)
			p.m[key+"_mb"] = median(mb)
			if step == "obs" {
				p.m["des.events_per_req."+topo.name] = float64(lastSink.CounterValue("des.events")) / float64(lastSink.CounterValue("requests"))
			}
			if topo.name == "rack" && step == "energy" {
				if err := p.exports(last, lastSink); err != nil {
					return err
				}
			}
		}
	}
	r := func(a, b string) float64 { return p.m["ladder.rack."+a+"_s"]/p.m["ladder.rack."+b+"_s"] - 1 }
	p.m["obs.sink_cost_frac"] = r("obs", "plain")
	p.m["window.tee_cost_frac"] = r("slo", "obs")
	p.m["energy.tee_cost_frac"] = r("energy", "slo")
	p.m["span.trace_cost_frac"] = r("trace", "energy")
	return nil
}

// exports times the obs, SLO and energy exports of one instrumented
// rack run.
func (p *prober) exports(res cluster.Result, sink *obs.Sink) error {
	if res.SLO == nil || res.Energy == nil {
		return fmt.Errorf("rack energy step returned no SLO or energy collector")
	}
	var err error
	a0 := allocBytes()
	if p.m["obs.export_s"], err = timed(func() error {
		return export(p.tr, "obs.Sink.WriteJSONL", func() error { return sink.WriteJSONL(io.Discard) })
	}); err != nil {
		return err
	}
	p.m["obs.export_mb"] = float64(allocBytes()-a0) / probeReps / 1e6
	p.m["obs.events"] = float64(len(sink.Events()))
	if p.m["window.export_s"], err = timed(func() error {
		return export(p.tr, "window.Collector.WriteJSONL", func() error { return res.SLO.WriteJSONL(io.Discard, res.SLOParts...) })
	}); err != nil {
		return err
	}
	p.m["energy.export_s"], err = timed(func() error {
		return export(p.tr, "energy.Collector.WriteJSONL", func() error { return res.Energy.WriteJSONL(io.Discard) })
	})
	return err
}

// shard runs the rack at 1 and 2 shards with Obs off, then once more at
// 2 shards with a ShardDiag sink for the kernel's round counters.
func (p *prober) shard() error {
	rs, err := newRackShape(p.k, p.tr)
	if err != nil {
		return err
	}
	var reqs atomic.Int64
	gen := countingGen{rs.gen, &reqs}
	at := func(shards int) (float64, error) {
		o := rs.opts
		o.Topology = rs.rack(p.k, shards)
		return timed(func() error {
			_, err := simulate(p.tr, rs.cfg, gen, o)
			return err
		})
	}
	one, err := at(1)
	if err != nil {
		return err
	}
	perRun := float64(reqs.Load()) / probeReps
	two, err := at(2)
	if err != nil {
		return err
	}
	p.m["cluster.rack_s"] = one
	p.m["cluster.rack_req_per_s"] = perRun / one
	p.m["shard.speedup_2"] = one / two

	diag := obs.NewSink()
	o := rs.opts
	o.Topology = rs.rack(p.k, 2)
	o.ShardDiag = diag
	if _, err := simulate(p.tr, rs.cfg, rs.gen, o); err != nil {
		return err
	}
	var rounds, fired, msgs int64
	for s := 0; s < 2; s++ {
		tag := fmt.Sprintf("s%d", s)
		if w := diag.CounterValue("shard.windows." + tag); w > rounds {
			rounds = w
		}
		fired += diag.CounterValue("shard.fired." + tag)
		msgs += diag.CounterValue("shard.msgs_sent." + tag)
	}
	var busy, blocked float64
	for _, e := range diag.Events() {
		if e.Stream != "shard.summary" {
			continue
		}
		for _, f := range e.Fields {
			switch f.Key {
			case "busy_sec":
				busy += f.Num
			case "blocked_sec":
				blocked += f.Num
			}
		}
	}
	if rounds == 0 || busy+blocked == 0 {
		return fmt.Errorf("shard diagnostics are empty (rounds %d, busy+blocked %g s)", rounds, busy+blocked)
	}
	p.m["shard.rounds"] = float64(rounds)
	p.m["shard.events_per_round"] = float64(fired) / float64(rounds)
	p.m["shard.blocked_frac"] = blocked / (busy + blocked)
	p.m["shard.msgs"] = float64(msgs)
	return nil
}

// cluster times the flat adaptive search on desk/websearch and the
// analytic solver's two entry points.
func (p *prober) cluster() error {
	cfg, prof, o, err := p.flatCell()
	if err != nil {
		return err
	}
	var reqs atomic.Int64
	gen := countingGen{workload.FixedGenerator{P: prof}, &reqs}
	sec, err := timed(func() error {
		_, err := simulate(p.tr, cfg, gen, o)
		return err
	})
	if err != nil {
		return err
	}
	perRun := float64(reqs.Load()) / probeReps
	p.m["cluster.flat_search_s"] = sec
	p.m["cluster.search_reqs"] = perRun
	p.m["cluster.flat_req_per_s"] = perRun / sec

	n := p.loops(1 << 16)
	at, err := cfg.Analyze(prof)
	if err != nil {
		return fmt.Errorf("analyze: %w", err)
	}
	lambda := at.Throughput / 2
	var aerr error
	p.m["cluster.analyze_ns"] = perOpNs(func() int64 {
		for i := 0; i < n; i++ {
			if _, err := cfg.Analyze(prof); err != nil {
				aerr = err
			}
		}
		return int64(n)
	})
	p.m["cluster.analyze_at_ns"] = perOpNs(func() int64 {
		for i := 0; i < n; i++ {
			if _, err := cfg.AnalyzeAt(prof, lambda); err != nil {
				aerr = err
			}
		}
		return int64(n)
	})
	return aerr
}

// fleet prices a rack-second of simulated time on each modelling level:
// the fleet with 4 hot racks against the same fleet all cold, at one
// worker so the difference is CPU time.
func (p *prober) fleet() error {
	rs, err := newRackShape(p.k, p.tr)
	if err != nil {
		return err
	}
	at := func(hot int) (float64, *cluster.FleetTopology, error) {
		o := rs.opts
		t := fleetTopology(p.k, hot)
		o.Topology = t
		sec, err := timed(func() error {
			_, err := simulate(p.tr, rs.cfg, rs.gen, o)
			return err
		})
		return sec, t, err
	}
	hotSec, hotTopo, err := at(4)
	if err != nil {
		return err
	}
	coldSec, coldTopo, err := at(0)
	if err != nil {
		return err
	}
	simSec := rs.opts.WarmupSec + rs.opts.MeasureSec
	p.m["cluster.fleet_cold_ns_per_rack_s"] = coldSec * 1e9 / (float64(coldTopo.Racks) * simSec)
	p.m["cluster.fleet_hot_ns_per_rack_s"] = (hotSec - coldSec) * 1e9 / (float64(hotTopo.HotRacks) * simSec)
	return nil
}

// sample times the request generator on its own.
func (p *prober) sample() error {
	gen := workload.FixedGenerator{P: workload.WebsearchProfile()}
	n := p.loops(1 << 20)
	var sink float64
	p.m["workload.sample_ns"] = perOpNs(func() int64 {
		rng := stats.NewRNG(1)
		for i := 0; i < n; i++ {
			sink += gen.Sample(rng).CPURefSec
		}
		return int64(n)
	})
	if math.IsNaN(sink) {
		return fmt.Errorf("generator sampled NaN demand")
	}
	return nil
}

// memblade collects a page trace from the websearch engine (as fig4b
// does) and replays it through the two-level memory at 25% local
// memory with random replacement; it also times the zipf sampler the
// synthetic tracers draw ranks from.
func (p *prober) memblade() error {
	prof := workload.WebsearchProfile()
	cfg := websearch.DefaultConfig()
	if p.k.quick {
		cfg.NumDocs /= 20
	}
	eng, err := websearch.New(cfg, prof)
	if err != nil {
		return fmt.Errorf("websearch engine: %w", err)
	}
	requests := p.loops(2048)
	var pt *trace.PageTrace
	if p.m["trace.collect_pages_s"], err = timed(func() error {
		pt = trace.CollectPages(eng, stats.NewRNG(11), requests)
		return nil
	}); err != nil {
		return err
	}
	mcfg := memblade.Config{FootprintPages: int64(prof.MemFootprintMB * 1e6 / 4096), LocalFraction: 0.25, Policy: memblade.Random, Seed: 7}
	if _, err := memblade.New(mcfg); err != nil {
		return fmt.Errorf("memblade: %w", err)
	}
	p.m["memblade.access_ns"] = perOpNs(func() int64 {
		sim, _ := memblade.New(mcfg)
		return memblade.Replay(sim, pt).Accesses
	})

	z, err := stats.NewZipf(1<<20, 0.9)
	if err != nil {
		return fmt.Errorf("zipf: %w", err)
	}
	n := p.loops(1 << 20)
	var sum int
	p.m["stats.zipf_rank_ns"] = perOpNs(func() int64 {
		rng := stats.NewRNG(3)
		for i := 0; i < n; i++ {
			sum += z.Rank(rng)
		}
		return int64(n)
	})
	if sum <= 0 {
		return fmt.Errorf("zipf ranks summed to %d", sum)
	}
	return nil
}

// flashcache replays the websearch disk working set through the 1 GB
// flash cache, the replay behind N2's ClusterConfig.
func (p *prober) flashcache() error {
	ws, ok := flashcache.DiskWorkingSets()["websearch"]
	if !ok {
		return fmt.Errorf("no websearch disk working set")
	}
	if _, err := flashcache.New(flashcache.DefaultConfig()); err != nil {
		return fmt.Errorf("flashcache: %w", err)
	}
	requests := p.loops(2048)
	p.m["flashcache.op_ns"] = perOpNs(func() int64 {
		sim, _ := flashcache.New(flashcache.DefaultConfig())
		st := flashcache.Replay(sim, &ws, stats.NewRNG(1), requests)
		return st.Reads + st.Writes
	})
	return nil
}

// core lowers each search design onto all five suite profiles (one in
// quick mode) with a fresh evaluator, so N2's flash hit-rate replays
// are paid in full.
func (p *prober) core() error {
	profiles := workload.SuiteProfiles()
	if p.k.quick {
		profiles = profiles[:1]
	}
	for _, d := range searchDesigns() {
		ev := newEvaluator(p.tr)
		t0 := time.Now()
		for _, prof := range profiles {
			if _, err := clusterConfig(p.tr, ev, d, prof); err != nil {
				return err
			}
		}
		p.m["core.cluster_config_s."+d.Name] = time.Since(t0).Seconds()
	}
	return nil
}

// experiments runs all twelve paper artifacts once, sequentially, and
// times each from the suite's progress callbacks. Its report digest is
// checked against the golden one: this is where fig4b's comparison
// with the paper is pinned. Quick mode runs only the cheap artifacts
// and reports the others as zero.
func (p *prober) experiments() error {
	experiments.SetSweepParallelism(1)
	ids := experimentIDs
	if p.k.quick {
		ids = paperIDs
	}
	for _, id := range experimentIDs {
		p.m["experiments."+id+"_s"] = 0
	}
	last := time.Now()
	reps, err := execute(p.tr, experiments.RunSpec{IDs: ids, Parallelism: 1, Progress: func(sp experiments.SuiteProgress) {
		now := time.Now()
		p.m["experiments."+sp.ID+"_s"] = now.Sub(last).Seconds()
		last = now
	}})
	if err != nil {
		return err
	}
	if sum := reportsDigest(reps); p.suiteGolden != "" && sum != p.suiteGolden {
		return fmt.Errorf("report digest %s, want %s", sum, p.suiteGolden)
	}
	return nil
}
