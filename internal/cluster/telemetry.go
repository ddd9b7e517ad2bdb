package cluster

import (
	"warehousesim/internal/des"
	"warehousesim/internal/obs"
	"warehousesim/internal/obs/energy"
	"warehousesim/internal/obs/window"
	"warehousesim/internal/workload"
)

// planes is one partition's windowed telemetry: one window collector
// (nil when both planes are off), read by the SLO plane when slo is set
// and viewed by the energy plane en when that is on. Every stream is
// binned once, on the goroutine that owns the partition. The producers
// feed the collector typed values: the population each completed
// request (population.bind), the probes each utilization sample
// (watch).
type planes struct {
	win *window.Collector
	slo bool
	en  *energy.Collector
}

// newPlanes builds one partition's planes for an instrumented run; both
// are off when the run has no sink to ride. The collector
// inherits the profile's QoS bound and percentile, so a window
// "violates" exactly when the bound the adaptive driver enforces
// globally is broken locally in time. Energy reads no QoS field, so an
// energy-only run exports the same bytes either way. SimOptions.Normalize
// has already required equal widths when both planes are on.
func newPlanes(p workload.Profile, opt SimOptions) (planes, error) {
	if opt.Obs == nil || (opt.SLOWindowSec == 0 && opt.Energy == nil) {
		return planes{}, nil
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
		return planes{}, err
	}
	pl := planes{win: win, slo: opt.SLOWindowSec > 0}
	if opt.Energy != nil {
		if pl.en, err = energy.New(*opt.Energy, win); err != nil {
			return planes{}, err
		}
	}
	return pl, nil
}

// watch hands pr's utilization samples to the collector when a plane
// is on.
func (pl planes) watch(pr *des.Probes) {
	if pl.win != nil {
		pr.OnUtil = pl.win
	}
}

// seal closes the collector at the run's horizon.
func (pl planes) seal(horizon float64) {
	if pl.win != nil {
		pl.win.Seal(horizon)
	}
}

// finish seals a flat run's planes at its horizon, hangs them on res,
// and emits their summaries into rec.
func (pl planes) finish(horizon float64, rec *obs.Sink, res *Result) {
	pl.seal(horizon)
	if pl.slo {
		res.SLO = pl.win
	}
	res.Energy = pl.en
	emitTelemetry(rec, res)
}

// onTick binds SimOptions.OnProbeTick to the run's partitions, in part
// order; nil when no hook is set.
func onTick(hook func(float64, LiveHandles), parts ...planes) func(float64) {
	if hook == nil {
		return nil
	}
	var live LiveHandles
	for _, pl := range parts {
		if pl.slo {
			live.SLO = append(live.SLO, pl.win)
		}
		if pl.en != nil {
			live.Energy = append(live.Energy, pl.en)
		}
	}
	return func(now float64) { hook(now, live) }
}

// mergeTelemetry folds sealed per-partition planes, in the given
// model-fixed order, into one collector: res.SLO (with the parts as
// res.SLOParts) when the SLO plane is on, and the source of res.Energy
// when energy is.
func mergeTelemetry(res *Result, parts []planes) error {
	if len(parts) == 0 || parts[0].win == nil {
		return nil
	}
	wins := make([]*window.Collector, len(parts))
	for i, pl := range parts {
		wins[i] = pl.win
	}
	merged := window.Merge(wins...)
	if parts[0].slo {
		res.SLO, res.SLOParts = merged, wins
	}
	if parts[0].en == nil {
		return nil
	}
	var err error
	res.Energy, err = energy.New(parts[0].en.Config(), merged)
	return err
}

// emitTelemetry writes a result's windowed summaries into the
// deterministic stream — QoS episodes (attributed over SLOParts), then
// energy totals. Both derive from the merged collectors, so the stream
// is identical at every shard and parallelism count.
func emitTelemetry(rec *obs.Sink, res *Result) {
	if res.SLO != nil {
		res.SLO.EmitEpisodes(rec, res.SLO.Episodes(res.SLOParts...))
	}
	if res.Energy != nil {
		res.Energy.EmitTotals(rec)
	}
}
