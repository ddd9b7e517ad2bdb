package core

import (
	"fmt"

	"warehousesim/internal/cluster"
	"warehousesim/internal/cooling"
	"warehousesim/internal/cost"
	"warehousesim/internal/flashcache"
	"warehousesim/internal/metrics"
	"warehousesim/internal/platform"
	"warehousesim/internal/power"
	"warehousesim/internal/stats"
	"warehousesim/internal/workload"
)

// Evaluator runs (design, workload) evaluations and produces the
// measurement tables behind Figure 2(c), Table 3(b) and Figure 5.
type Evaluator struct {
	// Cost is the TCO model (defaults from the paper).
	Cost cost.Model
	// FlashReplayRequests sizes the flash-cache trace replay used to
	// derive per-workload hit rates.
	FlashReplayRequests int
	// Seed drives trace replays.
	Seed uint64
	// EnclosureCoolingCredit, when set, scales the burdened-cooling
	// factors (L1, K2) by the enclosure's room-cooling factor — the
	// second-order CRAC credit the paper's fixed K1/L1/K2 ignore
	// (cooling.Enclosure.RoomCoolingFactor). Off by default so headline
	// numbers stay on the paper's model.
	EnclosureCoolingCredit bool

	// hitRates caches flash hit rates per (storage kind, workload).
	hitRates map[string]float64
}

// NewEvaluator returns an evaluator with the paper's default models.
func NewEvaluator() *Evaluator {
	return &Evaluator{
		Cost:                cost.DefaultModel(),
		FlashReplayRequests: 4000,
		Seed:                1,
	}
}

// flashHitRate replays the workload's disk trace through the 1 GB flash
// cache and returns the steady-state read hit rate.
func (ev *Evaluator) flashHitRate(p workload.Profile) (float64, error) {
	if ev.hitRates == nil {
		ev.hitRates = map[string]float64{}
	}
	if hr, ok := ev.hitRates[p.Name]; ok {
		return hr, nil
	}
	ws, err := flashcache.DiskWorkingSet(p.Name)
	if err != nil {
		return 0, err
	}
	sim, err := flashcache.New(flashcache.DefaultConfig())
	if err != nil {
		return 0, err
	}
	r := stats.NewRNG(ev.Seed ^ 0xf1a5)
	// Warm the cache, then measure.
	flashcache.Replay(sim, &ws, r, ev.FlashReplayRequests/2)
	warm := sim.Stats()
	flashcache.Replay(sim, &ws, r, ev.FlashReplayRequests)
	st := sim.Stats()
	reads := st.Reads - warm.Reads
	hits := st.ReadHits - warm.ReadHits
	hr := 0.0
	if reads > 0 {
		hr = float64(hits) / float64(reads)
	}
	ev.hitRates[p.Name] = hr
	return hr, nil
}

// clusterConfig lowers a resolved design into the per-workload queueing
// configuration.
func (ev *Evaluator) clusterConfig(r Resolved, p workload.Profile) (cluster.Config, error) {
	cfg := cluster.Config{Server: r.Server}
	switch r.Design.Storage {
	case FlashSSDStorage:
		cfg.Storage = cluster.FlashOnlyDisk{Flash: platform.FlashSSD()}
	case RemoteLaptopStorage:
		cfg.Storage = cluster.RemoteDisk{Disk: r.Server.Disk}
	case RemoteLaptopFlashStorage, RemoteLaptop2FlashStorage:
		hr, err := ev.flashHitRate(p)
		if err != nil {
			return cluster.Config{}, err
		}
		if r.Server.Flash == nil {
			return cluster.Config{}, fmt.Errorf("core: %s lacks a flash device", r.Design.Name)
		}
		cfg.Storage = cluster.FlashCachedDisk{
			Flash:             *r.Server.Flash,
			Backing:           cluster.RemoteDisk{Disk: r.Server.Disk},
			HitRate:           hr,
			DestageForeground: 0.1,
		}
	}
	if r.Design.Memory != nil {
		cfg.MemSlowdown = r.Design.Memory.AssumedSlowdown
	}
	return cfg, nil
}

// ClusterConfig lowers a design onto the per-workload queueing
// configuration (resolved server, storage subsystem, memory slowdown) —
// the same lowering Evaluate uses, exposed for callers that drive the
// discrete-event simulation directly (cmd/whsim).
func (ev *Evaluator) ClusterConfig(d Design, p workload.Profile) (cluster.Config, error) {
	resolved, err := d.Resolve()
	if err != nil {
		return cluster.Config{}, err
	}
	return ev.clusterConfig(resolved, p)
}

// PowerBreakdown resolves a design and returns its per-component
// consumed-power split under the evaluator's cost model — the active
// (activity-factored) draw the time-resolved energy plane scales by
// observed utilization (obs/energy.Model.Active).
func (ev *Evaluator) PowerBreakdown(d Design) (power.Breakdown, error) {
	resolved, err := d.Resolve()
	if err != nil {
		return power.Breakdown{}, err
	}
	return ev.Cost.Power.ServerConsumed(resolved.Server, resolved.Rack), nil
}

// Evaluate measures one design on the given workload profiles and
// returns one metrics.Measurement per profile.
func (ev *Evaluator) Evaluate(d Design, profiles []workload.Profile) ([]metrics.Measurement, error) {
	resolved, err := d.Resolve()
	if err != nil {
		return nil, err
	}
	costModel := ev.Cost
	if ev.EnclosureCoolingCredit {
		f := cooling.EnclosureFor(d.Enclosure).RoomCoolingFactor()
		costModel.PC.L1 *= f
		costModel.PC.K2 *= f
	}
	inf, pc, tco := resolved.ServerTCO(costModel)
	consumed := costModel.Power.ServerConsumed(resolved.Server, resolved.Rack).TotalW()

	out := make([]metrics.Measurement, 0, len(profiles))
	for _, p := range profiles {
		cfg, err := ev.clusterConfig(resolved, p)
		if err != nil {
			return nil, err
		}
		res, err := cfg.Analyze(p)
		if err != nil {
			return nil, err
		}
		unit := "RPS"
		if p.Batch {
			unit = "1/s"
		}
		out = append(out, metrics.Measurement{
			Workload: p.Name,
			System:   d.Name,
			Perf:     res.Perf,
			Unit:     unit,
			QoSMet:   res.QoSMet,
			PowerW:   consumed,
			InfUSD:   inf,
			PCUSD:    pc,
			TCOUSD:   tco,
		})
	}
	return out, nil
}

// EvaluateSuite measures several designs across the full benchmark
// suite and returns the combined table.
func (ev *Evaluator) EvaluateSuite(designs []Design) (*metrics.Table, error) {
	t := &metrics.Table{}
	profiles := workload.SuiteProfiles()
	for _, d := range designs {
		ms, err := ev.Evaluate(d, profiles)
		if err != nil {
			return nil, fmt.Errorf("core: evaluating %s: %w", d.Name, err)
		}
		for _, m := range ms {
			t.Add(m)
		}
	}
	return t, nil
}

// RackFor reports the rack density of a design for the compaction
// discussion of §3.3/§3.6.
func RackFor(d Design) (platform.Rack, error) {
	r, err := d.Resolve()
	if err != nil {
		return platform.Rack{}, err
	}
	return r.Rack, nil
}
