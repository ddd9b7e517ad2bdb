package cluster

import (
	"warehousesim/internal/des"
	"warehousesim/internal/obs"
	"warehousesim/internal/obs/energy"
	"warehousesim/internal/obs/window"
	"warehousesim/internal/workload"
)

// planes is one partition's windowed telemetry: the SLO collector and
// the energy view, nil when that plane is off. When the energy width
// equals the SLO width the view reads the SLO collector itself, so
// every stream is binned once; otherwise (the SLO plane off, or another
// width) it reads a private collector. The producers feed them typed
// values: the population each completed request (observe), the probes
// each utilization sample (sampleUtil).
type planes struct {
	slo *window.Collector
	en  *energy.Collector
}

// newPlanes builds one partition's planes for an instrumented run; both
// are off when the run has no enabled recorder to ride. The SLO window
// inherits the profile's QoS bound and percentile, so a window
// "violates" exactly when the bound the adaptive driver enforces
// globally is broken locally in time.
func newPlanes(p workload.Profile, opt SimOptions) (planes, error) {
	var pl planes
	if !obs.On(opt.Obs) {
		return pl, nil
	}
	var err error
	if opt.SLOWindowSec > 0 {
		pl.slo, err = window.New(window.Config{
			WidthSec:      opt.SLOWindowSec,
			QoSLatencySec: p.QoSLatencySec,
			QoSPercentile: p.QoSPercentile,
		})
		if err != nil {
			return planes{}, err
		}
	}
	if opt.Energy != nil {
		src := pl.slo
		if src == nil || opt.Energy.WidthSec != opt.SLOWindowSec {
			if src, err = window.New(window.Config{WidthSec: opt.Energy.WidthSec}); err != nil {
				return planes{}, err
			}
		}
		if pl.en, err = energy.New(*opt.Energy, src); err != nil {
			return planes{}, err
		}
	}
	return pl, nil
}

// private returns the window collector only the energy view reads, nil
// when energy is off or shares the SLO collector.
func (pl planes) private() *window.Collector {
	if pl.en == nil || pl.en.Source() == pl.slo {
		return nil
	}
	return pl.en.Source()
}

// fed lists the distinct window collectors, each once; off planes are
// nil entries.
func (pl planes) fed() [2]*window.Collector {
	return [...]*window.Collector{pl.slo, pl.private()}
}

// observe feeds one request completing at at to each distinct window
// collector.
func (pl planes) observe(at, latency float64, violation bool) {
	for _, c := range pl.fed() {
		if c != nil {
			c.ObserveLatency(at, latency, violation)
		}
	}
}

// sampleUtil feeds one probe utilization sample of a resource class to
// each distinct window collector.
func (pl planes) sampleUtil(class string, at, util float64) {
	for _, c := range pl.fed() {
		if c != nil {
			c.SampleUtil(class, at, util)
		}
	}
}

// watch hands pr's utilization samples to the planes when any is on.
func (pl planes) watch(pr *des.Probes) {
	if pl != (planes{}) {
		pr.OnUtil = pl.sampleUtil
	}
}

// seal closes each distinct window collector at the run's horizon.
func (pl planes) seal(horizon float64) {
	for _, c := range pl.fed() {
		if c != nil {
			c.Seal(horizon)
		}
	}
}

// finish seals a flat run's planes at its horizon, hangs them on res,
// and emits their summaries into rec.
func (pl planes) finish(horizon float64, rec obs.Recorder, res *Result) {
	pl.seal(horizon)
	res.SLO, res.Energy = pl.slo, pl.en
	emitTelemetry(rec, res)
}

// liveHandles lists the partitions' collectors, in part order, for
// SimOptions.OnLive.
func liveHandles(parts ...planes) LiveHandles {
	var h LiveHandles
	for _, pl := range parts {
		if pl.slo != nil {
			h.SLO = append(h.SLO, pl.slo)
		}
		if pl.en != nil {
			h.Energy = append(h.Energy, pl.en)
		}
	}
	return h
}

// mergeTelemetry folds sealed per-partition planes, in the given
// model-fixed order, into res.SLO (with the parts as res.SLOParts) and
// res.Energy. Each distinct window collector merges once: the energy
// view reads the merged SLO collector when the parts share it, else the
// merge of their private collectors.
func mergeTelemetry(res *Result, parts []planes) error {
	var slos, private []*window.Collector
	for _, pl := range parts {
		if pl.slo != nil {
			slos = append(slos, pl.slo)
		}
		if c := pl.private(); c != nil {
			private = append(private, c)
		}
	}
	if len(slos) > 0 {
		res.SLO, res.SLOParts = window.Merge(slos...), slos
	}
	if len(parts) == 0 || parts[0].en == nil {
		return nil
	}
	src := res.SLO
	if len(private) > 0 {
		src = window.Merge(private...)
	}
	var err error
	res.Energy, err = energy.New(parts[0].en.Config(), src)
	return err
}

// emitTelemetry writes a result's windowed summaries into the
// deterministic stream — QoS episodes (attributed over SLOParts), then
// energy totals. Both derive from the merged collectors, so the stream
// is identical at every shard and parallelism count.
func emitTelemetry(rec obs.Recorder, res *Result) {
	if res.SLO != nil {
		res.SLO.EmitEpisodes(rec, res.SLO.Episodes(res.SLOParts...))
	}
	if res.Energy != nil {
		res.Energy.EmitTotals(rec)
	}
}
