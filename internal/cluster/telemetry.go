package cluster

import (
	"warehousesim/internal/des"
	"warehousesim/internal/obs"
	"warehousesim/internal/obs/energy"
	"warehousesim/internal/obs/window"
	"warehousesim/internal/workload"
)

// part is one partition's recording, the unit every recorded run is
// built, probed and folded in: the sink it writes and, when a window
// plane is on, its window collector (read by the SLO plane when slo is
// set) and its energy view. A flat run has one part, whose sink is
// SimOptions.Obs itself; a rack has one per enclosure, then the
// rack-global part; a fleet folds its hot racks' results as parts.
// Every stream is binned once, on the goroutine that owns the part:
// its population feeds the collector each completed request
// (population.bind), its probes each utilization sample (probe).
type part struct {
	rec *obs.Sink         // nil when the run is not recorded
	win *window.Collector // nil when both planes are off
	slo bool
	en  *energy.Collector
}

// newPart builds a part recording into rec with the window planes opt
// turns on; a nil rec records nothing, so no plane rides it. The
// collector inherits the profile's QoS bound and percentile, so a
// window "violates" exactly when the bound the adaptive driver enforces
// globally is broken locally in time. Energy reads no QoS field, so an
// energy-only run exports the same bytes either way.
// SimOptions.Normalize has already required equal widths when both
// planes are on.
func newPart(rec *obs.Sink, p workload.Profile, opt SimOptions) (part, error) {
	pt := part{rec: rec}
	if rec == nil || (opt.SLOWindowSec == 0 && opt.Energy == nil) {
		return pt, nil
	}
	width := opt.SLOWindowSec
	if opt.Energy != nil {
		width = opt.Energy.WidthSec
	}
	win, err := window.New(window.Config{
		WidthSec:      width,
		QoSLatencySec: p.QoSLatencySec,
		QoSPercentile: p.QoSPercentile,
	})
	if err != nil {
		return part{}, err
	}
	pt.win, pt.slo = win, opt.SLOWindowSec > 0
	if opt.Energy != nil {
		if pt.en, err = energy.New(*opt.Energy, win); err != nil {
			return part{}, err
		}
	}
	return pt, nil
}

// probe starts the part's timeline probes on sim over res, every
// interval simulated seconds, with the part's collector as their
// utilization feed and tick as their per-tick hook. They tick for as
// long as sim runs. kernel adds the kernel-wide gauges; rack parts
// leave them out, since heap depth and event rate are per-shard
// quantities. A part that records nothing starts none.
func (pt part) probe(sim *des.Sim, interval float64, kernel bool, tick func(float64), res ...*des.Resource) {
	if pt.rec == nil {
		return
	}
	pr := des.NewProbes(sim, pt.rec, des.Time(interval))
	pr.OmitKernel = !kernel
	pr.OnTick = tick
	if pt.win != nil {
		pr.OnUtil = pt.win
	}
	pr.Watch(res...)
	pr.Start()
}

// onTick binds SimOptions.OnProbeTick to the run's parts, in part
// order; nil when no hook is set.
func onTick(hook func(float64, LiveHandles), parts ...part) func(float64) {
	if hook == nil {
		return nil
	}
	live := LiveHandles{Obs: make([]*obs.Sink, len(parts))}
	for i, pt := range parts {
		live.Obs[i] = pt.rec
		if pt.slo {
			live.SLO = append(live.SLO, pt.win)
		}
		if pt.en != nil {
			live.Energy = append(live.Energy, pt.en)
		}
	}
	return func(now float64) { hook(now, live) }
}

// fold is the one fold of a partitioned recording. It seals the parts
// at horizon and folds them, in the model-fixed order given, into rec
// and res: the sinks merge into rec, the collectors into res.SLO (with
// the parts as res.SLOParts) when the SLO plane is on and into the
// source of res.Energy when energy is. A lone part that records into
// rec is its own fold, so SLOParts stays nil. With emit, fold then
// writes the QoS episodes (attributed over SLOParts) and the energy
// totals into rec. Everything it emits derives from the folded
// collectors, so the stream is identical at every shard and
// parallelism count. A fleet folds rack results that were sealed and
// emitted already, so it passes no horizon and no emit.
func fold(rec *obs.Sink, res *Result, horizon float64, emit bool, parts ...part) error {
	for _, pt := range parts {
		if pt.win != nil {
			pt.win.Seal(horizon)
		}
	}
	if len(parts) == 1 && parts[0].rec == rec {
		if parts[0].slo {
			res.SLO = parts[0].win
		}
		res.Energy = parts[0].en
	} else if len(parts) > 0 {
		if rec != nil {
			sinks := make([]*obs.Sink, len(parts))
			for i, pt := range parts {
				sinks[i] = pt.rec
			}
			rec.MergeFrom(sinks...)
		}
		if parts[0].win != nil {
			wins := make([]*window.Collector, len(parts))
			for i, pt := range parts {
				wins[i] = pt.win
			}
			merged := window.Merge(wins...)
			if parts[0].slo {
				res.SLO, res.SLOParts = merged, wins
			}
			if parts[0].en != nil {
				var err error
				if res.Energy, err = energy.New(parts[0].en.Config(), merged); err != nil {
					return err
				}
			}
		}
	}
	if emit && res.SLO != nil {
		res.SLO.EmitEpisodes(rec, res.SLO.Episodes(res.SLOParts...))
	}
	if emit && res.Energy != nil {
		res.Energy.EmitTotals(rec)
	}
	return nil
}
