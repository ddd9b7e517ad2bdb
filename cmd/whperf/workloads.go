package main

import (
	"fmt"

	"warehousesim/experiments"
	"warehousesim/internal/cluster"
	"warehousesim/internal/core"
	"warehousesim/internal/obs"
	"warehousesim/internal/obs/energy"
	"warehousesim/internal/platform"
	"warehousesim/internal/power"
	"warehousesim/internal/workload"
)

// knobs are the settings the tests vary to check that the digests do
// not depend on them; the benchmark itself always runs defaultKnobs.
type knobs struct {
	quick  bool  // reduced sizes, so go test finishes in seconds
	par    int   // search: SimOptions.Parallelism
	shards int   // rack: ShardedTopology.Shards
	hotSet []int // fleet: the hot rack ids; nil means racks 0..3
}

func defaultKnobs() knobs { return knobs{par: 1, shards: 2} }

// op runs input in of the workload's input pool, one at a time, and
// returns the digest of every simulated statistic it produced. keep
// holds the op's outputs, so the live-heap reading taken after the
// timed loop still sees them.
type op func(in int) (sum string, keep any, err error)

// workloadDef is one benchmark workload. setup builds everything an op
// needs; an op then simulates one input of a fixed pool of size inputs.
// The pool is what the golden digests cover, so every op of every run
// is checked, whatever --seed picked; the seed picks where in the pool
// a run starts.
type workloadDef struct {
	name   string
	why    string
	inputs int
	setup  func(k knobs, tr *tracer) (op, error)
}

var workloads = []workloadDef{
	{
		name:   "search",
		why:    "the paper's adaptive client search over 4 designs x 5 profiles: event loop, pooled trial engine and sampling dominate; racks, shards and telemetry are bypassed",
		inputs: poolSize,
		setup:  setupSearch,
	},
	{
		name:   "rack",
		why:    "one 16x8-board rack on the sharded kernel at 2 shards: per-round shard synchronisation dominates; only shard changes should move it",
		inputs: poolSize,
		setup:  setupRack,
	},
	{
		name:   "telemetry",
		why:    "the same rack at 1 shard with obs sink, 1 s SLO and energy windows and all three exports: recorder tees, sink merges and export dominate",
		inputs: poolSize,
		setup:  setupTelemetry,
	},
	{
		name:   "fleet",
		why:    "200 racks, 4 hot on DES and 196 on the analytic stand-in, least-loaded balancer, 2 workers, obs export: the hybrid fleet path",
		inputs: poolSize,
		setup:  setupFleet,
	},
	{
		name:   "paper",
		why:    "experiments.Execute of the paper's analytic tables and figures: the evaluator, cost and power models and report rendering dominate; DES and replays are bypassed",
		inputs: len(paperIDs),
		setup:  setupPaper,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// poolSize is the number of inputs (simulation seeds) in the pool of
// each DES workload. An untraced run always covers the whole pool at
// least once, so two runs differ in the order of their inputs and in
// which ones repeat, not in which inputs they measured: run-to-run
// spread then measures the host and the code rather than the draw.
const poolSize = 16

// simSeed is the simulation seed of pool input in.
func simSeed(in int) uint64 { return uint64(in) + 1 }

func newEvaluator(tr *tracer) *core.Evaluator {
	h := tr.begin("core.NewEvaluator")
	defer tr.end(h)
	return core.NewEvaluator()
}

func clusterConfig(tr *tracer, ev *core.Evaluator, d core.Design, p workload.Profile) (cluster.Config, error) {
	h := tr.begin("core.Evaluator.ClusterConfig")
	defer tr.end(h)
	cfg, err := ev.ClusterConfig(d, p)
	if err != nil {
		return cluster.Config{}, fmt.Errorf("cluster config %s/%s: %w", d.Name, p.Name, err)
	}
	return cfg, nil
}

func simulate(tr *tracer, cfg cluster.Config, gen workload.Generator, o cluster.SimOptions) (cluster.Result, error) {
	h := tr.begin("cluster.Config.Simulate")
	defer tr.end(h)
	res, err := cfg.Simulate(gen, o)
	if err != nil {
		return cluster.Result{}, fmt.Errorf("simulate %s seed %d: %w", gen.Profile().Name, o.Seed, err)
	}
	return res, nil
}

func searchDesigns() []core.Design {
	return []core.Design{
		core.BaselineDesign(platform.Srvr1()),
		core.BaselineDesign(platform.Desk()),
		core.BaselineDesign(platform.Emb1()),
		core.NewN2(),
	}
}

// setupSearch: the flat model's adaptive search, one op = every design
// on every suite profile at one seed, with whsim's default window.
func setupSearch(k knobs, tr *tracer) (op, error) {
	designs := searchDesigns()
	profiles := workload.SuiteProfiles()
	opts := cluster.DefaultSimOptions()
	opts.MeasureSec = 120
	opts.Parallelism = k.par
	ev := newEvaluator(tr)
	if k.quick {
		designs = designs[2:]
		profiles = []workload.Profile{profiles[0], profiles[3]}
		opts.MeasureSec = 5
		ev.FlashReplayRequests = 200
	}
	type cell struct {
		cfg cluster.Config
		gen workload.Generator
	}
	var cells []cell
	for _, d := range designs {
		for _, p := range profiles {
			cfg, err := clusterConfig(tr, ev, d, p)
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell{cfg, workload.FixedGenerator{P: p}})
		}
	}
	return func(in int) (string, any, error) {
		o := opts
		o.Seed = simSeed(in)
		dg := newDigest()
		out := make([]cluster.Result, len(cells))
		for i, c := range cells {
			res, err := simulate(tr, c.cfg, c.gen, o)
			if err != nil {
				return "", nil, err
			}
			dg.result(res)
			out[i] = res
		}
		return dg.sum(), out, nil
	}, nil
}

// rackShape is the emb1 websearch rack the rack, telemetry and fleet
// workloads share.
type rackShape struct {
	ev   *core.Evaluator
	d    core.Design
	cfg  cluster.Config
	gen  workload.FixedGenerator
	opts cluster.SimOptions
}

func newRackShape(k knobs, tr *tracer) (rackShape, error) {
	s := rackShape{ev: newEvaluator(tr), d: core.BaselineDesign(platform.Emb1())}
	p := workload.WebsearchProfile()
	cfg, err := clusterConfig(tr, s.ev, s.d, p)
	if err != nil {
		return rackShape{}, err
	}
	s.cfg, s.gen = cfg, workload.FixedGenerator{P: p}
	s.opts = cluster.DefaultSimOptions()
	s.opts.WarmupSec, s.opts.MeasureSec = 10, 60
	if k.quick {
		s.opts.WarmupSec, s.opts.MeasureSec = 2, 5
	}
	return s, nil
}

// rack is the rack topology at the given shard count: 16 enclosures of
// 8 boards (512 clients), or 4 of 2 in quick mode.
func (s rackShape) rack(k knobs, shards int) *cluster.ShardedTopology {
	if k.quick {
		return &cluster.ShardedTopology{Enclosures: 4, BoardsPerEnclosure: 2, Shards: shards}
	}
	return &cluster.ShardedTopology{Enclosures: 16, BoardsPerEnclosure: 8, Shards: shards}
}

func setupRack(k knobs, tr *tracer) (op, error) {
	s, err := newRackShape(k, tr)
	if err != nil {
		return nil, err
	}
	opts := s.opts
	opts.Topology = s.rack(k, k.shards)
	return func(in int) (string, any, error) {
		o := opts
		o.Seed = simSeed(in)
		res, err := simulate(tr, s.cfg, s.gen, o)
		if err != nil {
			return "", nil, err
		}
		dg := newDigest()
		dg.result(res)
		return dg.sum(), res, nil
	}, nil
}

// energyModel is the idle/active power split of design d.
func energyModel(tr *tracer, ev *core.Evaluator, d core.Design) (energy.Model, error) {
	h := tr.begin("core.Evaluator.PowerBreakdown")
	defer tr.end(h)
	pb, err := ev.PowerBreakdown(d)
	if err != nil {
		return energy.Model{}, fmt.Errorf("power breakdown %s: %w", d.Name, err)
	}
	return energy.Model{Active: pb, Idle: power.DefaultIdleFractions()}, nil
}

// export runs one serialisation inside a span.
func export(tr *tracer, name string, write func() error) error {
	if err := tr.do(name, write); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// recordedOut is what a telemetry or fleet op leaves reachable.
type recordedOut struct {
	res  cluster.Result
	sink *obs.Sink
}

func setupTelemetry(k knobs, tr *tracer) (op, error) {
	s, err := newRackShape(k, tr)
	if err != nil {
		return nil, err
	}
	model, err := energyModel(tr, s.ev, s.d)
	if err != nil {
		return nil, err
	}
	opts := s.opts
	opts.Topology = s.rack(k, 1)
	opts.SLOWindowSec = 1
	opts.Energy = &energy.Config{WidthSec: 1, Model: model}
	return func(in int) (string, any, error) {
		o := opts
		o.Seed = simSeed(in)
		sink := obs.NewSink()
		o.Obs = sink
		res, err := simulate(tr, s.cfg, s.gen, o)
		if err != nil {
			return "", nil, err
		}
		if res.SLO == nil || res.Energy == nil {
			return "", nil, fmt.Errorf("telemetry seed %d: run returned no SLO or energy collector", o.Seed)
		}
		dg := newDigest()
		dg.result(res)
		if err := export(tr, "obs.Sink.WriteJSONL", func() error { return sink.WriteJSONL(dg) }); err != nil {
			return "", nil, err
		}
		if err := export(tr, "window.Collector.WriteJSONL", func() error { return res.SLO.WriteJSONL(dg, res.SLOParts...) }); err != nil {
			return "", nil, err
		}
		if err := export(tr, "energy.Collector.WriteJSONL", func() error { return res.Energy.WriteJSONL(dg) }); err != nil {
			return "", nil, err
		}
		return dg.sum(), recordedOut{res, sink}, nil
	}, nil
}

// fleetTopology is 200 racks of 4x8 boards with 4 hot, or 10 racks of
// 2x2 with 2 hot in quick mode.
func fleetTopology(k knobs, hot int) *cluster.FleetTopology {
	t := &cluster.FleetTopology{
		Racks: 200, HotRacks: hot, Balancer: cluster.BalancerLeastLoaded,
		Rack: cluster.ShardedTopology{Enclosures: 4, BoardsPerEnclosure: 8, Shards: 1},
	}
	if k.quick {
		t.Racks, t.Rack.Enclosures, t.Rack.BoardsPerEnclosure = 10, 2, 2
		if hot > 2 {
			t.HotRacks = 2
		}
	}
	if k.hotSet != nil && hot > 0 {
		t.HotRacks, t.HotSet = len(k.hotSet), append([]int(nil), k.hotSet...)
	}
	return t
}

func setupFleet(k knobs, tr *tracer) (op, error) {
	s, err := newRackShape(k, tr)
	if err != nil {
		return nil, err
	}
	opts := s.opts
	opts.Parallelism = 2
	opts.Topology = fleetTopology(k, 4)
	return func(in int) (string, any, error) {
		o := opts
		o.Seed = simSeed(in)
		sink := obs.NewSink()
		o.Obs = sink
		res, err := simulate(tr, s.cfg, s.gen, o)
		if err != nil {
			return "", nil, err
		}
		dg := newDigest()
		dg.result(res)
		if err := export(tr, "obs.Sink.WriteJSONL", func() error { return sink.WriteJSONL(dg) }); err != nil {
			return "", nil, err
		}
		return dg.sum(), recordedOut{res, sink}, nil
	}, nil
}

// paperIDs are the paper's artifacts that the analytic model produces,
// in registry order: microseconds to a millisecond each. The paper's
// other four do not fit a steady run: fig4b takes about 15 s on its
// own, and table3, fig5 and fig5alt (about 3.5 s each, nearly all of it
// flash-cache replays) vary by about 15% from one op to the next on the
// reference host. The traced run times each of them
// (experiments.<id>_s), and search's setup runs the same replays.
var paperIDs = []string{"table1", "fig1", "table2", "fig2ab", "fig2c", "fig3", "rackpower", "fig4c"}

// setupPaper: one op executes every artifact of paperIDs, starting at
// artifact in and wrapping around, so the seed varies the order; the
// digest covers the reports in registry order.
func setupPaper(k knobs, tr *tracer) (op, error) {
	experiments.SetSweepParallelism(1)
	return func(in int) (string, any, error) {
		ids := append(append([]string(nil), paperIDs[in:]...), paperIDs[:in]...)
		reps, err := execute(tr, experiments.RunSpec{IDs: ids, Parallelism: 1})
		if err != nil {
			return "", nil, err
		}
		inOrder := append(append([]experiments.Report(nil), reps[len(ids)-in:]...), reps[:len(ids)-in]...)
		return reportsDigest(inOrder), reps, nil
	}, nil
}

func execute(tr *tracer, spec experiments.RunSpec) ([]experiments.Report, error) {
	h := tr.begin("experiments.Execute")
	defer tr.end(h)
	reps, err := experiments.Execute(spec)
	if err != nil {
		return nil, fmt.Errorf("experiments %v: %w", spec.IDs, err)
	}
	return reps, nil
}

// reportsDigest hashes the report text, which pins the model's
// comparisons against the paper's published numbers.
func reportsDigest(reps []experiments.Report) string {
	dg := newDigest()
	for _, r := range reps {
		dg.str(r.String())
	}
	return dg.sum()
}
