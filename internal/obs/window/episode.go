package window

import "warehousesim/internal/obs"

// Episode is one QoS violation episode: a maximal run of consecutive
// violating windows (the configured percentile of the window's latency
// histogram exceeded the QoS bound).
type Episode struct {
	// StartSec and EndSec bound the episode in simulated time (window
	// edges; EndSec is clamped to the seal horizon).
	StartSec float64 `json:"start_sec"`
	EndSec   float64 `json:"end_sec"`
	// Windows is the number of violating windows in the episode.
	Windows int `json:"windows"`
	// PeakLatencySec is the worst per-window QoS-percentile latency, and
	// PeakExcessSec how far it exceeded the bound.
	PeakLatencySec float64 `json:"peak_latency_sec"`
	PeakExcessSec  float64 `json:"peak_excess_sec"`
	// Requests and Violations total over the episode's windows.
	Requests   int64 `json:"requests"`
	Violations int64 `json:"violations"`
	// AffectedParts is how many of the per-partition collectors (the
	// enclosures of a rack run) had at least one violating window inside
	// the episode; 1 for single-part (flat) runs.
	AffectedParts int `json:"affected_parts"`
}

// DurationSec is the episode's length in simulated seconds.
func (e Episode) DurationSec() float64 { return e.EndSec - e.StartSec }

// Episodes reduces the collector's sealed windows to QoS violation
// episodes: consecutive window indices whose QoS-percentile latency
// exceeds the bound. parts, when given, are the per-partition
// collectors the merged windows came from (in the same fixed order as
// MergeFrom) and attribute how many partitions each episode touched;
// without parts every episode reports one affected part. Returns nil
// when no QoS bound is configured.
func (c *Collector) Episodes(parts ...*Collector) []Episode {
	if c.cfg.QoSLatencySec <= 0 {
		return nil
	}
	var eps []Episode
	var cur *Episode
	var prevIdx int64
	for _, w := range c.sealed {
		qlat, violating := c.qos(w)
		if !violating {
			if cur != nil {
				eps = append(eps, *cur)
				cur = nil
			}
			continue
		}
		t0, t1 := c.span(w)
		if cur != nil && w.index == prevIdx+1 {
			cur.EndSec = t1
			cur.Windows++
			cur.Requests += w.requests
			cur.Violations += w.violations
			if qlat > cur.PeakLatencySec {
				cur.PeakLatencySec = qlat
				cur.PeakExcessSec = qlat - c.cfg.QoSLatencySec
			}
		} else {
			if cur != nil {
				eps = append(eps, *cur)
			}
			cur = &Episode{
				StartSec: t0, EndSec: t1, Windows: 1,
				PeakLatencySec: qlat, PeakExcessSec: qlat - c.cfg.QoSLatencySec,
				Requests: w.requests, Violations: w.violations,
			}
		}
		prevIdx = w.index
	}
	if cur != nil {
		eps = append(eps, *cur)
	}
	spans := make([][][2]float64, len(parts))
	for i, p := range parts {
		spans[i] = p.violatingSpans()
	}
	for i := range eps {
		eps[i].AffectedParts = affectedParts(eps[i], spans)
	}
	return eps
}

// violatingSpans returns the [T0, T1) spans of c's violating windows in
// index order.
func (c *Collector) violatingSpans() [][2]float64 {
	var spans [][2]float64
	for _, w := range c.sealed {
		if _, v := c.qos(w); v {
			t0, t1 := c.span(w)
			spans = append(spans, [2]float64{t0, t1})
		}
	}
	return spans
}

// affectedParts counts the partitions, given by their violating
// windows' spans, with a violating window inside the episode's span.
func affectedParts(e Episode, parts [][][2]float64) int {
	if len(parts) == 0 {
		return 1
	}
	n := 0
	for _, spans := range parts {
		for _, s := range spans {
			if s[0] < e.EndSec && s[1] > e.StartSec {
				n++
				break
			}
		}
	}
	return n
}

// ViolationSec sums the durations of the given episodes.
func ViolationSec(eps []Episode) float64 {
	var s float64
	for _, e := range eps {
		s += e.DurationSec()
	}
	return s
}

// EmitEpisodes writes the windowed-SLO summary into the deterministic
// recorder stream: slo.* counters plus one begin and one end
// "slo_episode" event per episode. Everything emitted is computed from
// the merged collector, so the stream is identical at every shard and
// parallelism count. Call after Seal/MergeFrom.
func (c *Collector) EmitEpisodes(rec *obs.Sink, eps []Episode) {
	if rec == nil {
		return
	}
	sealed, violating := c.Counts()
	rec.Count("slo.windows", int64(sealed))
	rec.Count("slo.windows_violating", int64(violating))
	rec.Count("slo.episodes", int64(len(eps)))
	for _, e := range eps {
		rec.Observe("slo.episode_sec", e.DurationSec())
		rec.Event("slo_episode", e.StartSec,
			obs.FS("phase", "begin"),
			obs.F("windows", float64(e.Windows)),
			obs.F("affected_parts", float64(e.AffectedParts)))
		rec.Event("slo_episode", e.EndSec,
			obs.FS("phase", "end"),
			obs.F("duration_sec", e.DurationSec()),
			obs.F("windows", float64(e.Windows)),
			obs.F("peak_latency_sec", e.PeakLatencySec),
			obs.F("peak_excess_sec", e.PeakExcessSec),
			obs.F("violations", float64(e.Violations)),
			obs.F("affected_parts", float64(e.AffectedParts)))
	}
}
