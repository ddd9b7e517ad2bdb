package obs

import "encoding/json"

// Progress describes how far a live run has advanced — published as
// part of every introspection snapshot so an operator can see where a
// long simulation is without touching it.
type Progress struct {
	// Phase names the stage of the run ("search", "replay", "done", or
	// an experiment id for suite runs).
	Phase string `json:"phase"`
	// SimTimeSec is the current simulated time; HorizonSec the planned
	// end of the run (0 when open-ended, e.g. batch jobs).
	SimTimeSec float64 `json:"sim_time_sec"`
	HorizonSec float64 `json:"horizon_sec,omitempty"`
	// Fraction is SimTimeSec/HorizonSec when a horizon is known.
	Fraction float64 `json:"fraction,omitempty"`
}

// snapshotDoc is the expvar-style JSON view of a Sink: run progress,
// every counter, the last point of every gauge series, histogram
// summaries, and the event-stream volume.
type snapshotDoc struct {
	Progress Progress                `json:"progress"`
	Manifest Manifest                `json:"manifest"`
	Counters map[string]int64        `json:"counters,omitempty"`
	Gauges   map[string]Point        `json:"gauges,omitempty"`
	Hists    map[string]histSnapshot `json:"hists,omitempty"`
	Events   eventSnapshot           `json:"events"`
}

type histSnapshot struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

type eventSnapshot struct {
	Retained int `json:"retained"`
}

// Snapshot marshals the sink's current state plus run progress into an
// immutable JSON document for the introspection server. It must be
// called from the simulation goroutine (the sink is single-threaded);
// the returned bytes are safe to hand to introspect.Server.Publish,
// which the HTTP handlers read concurrently.
func (s *Sink) Snapshot(p Progress) ([]byte, error) {
	if p.HorizonSec > 0 {
		p.Fraction = p.SimTimeSec / p.HorizonSec
	}
	doc := snapshotDoc{
		Progress: p,
		Manifest: s.manifest,
		Events:   eventSnapshot{Retained: len(s.rows)},
	}
	if len(s.counters) > 0 {
		doc.Counters = make(map[string]int64, len(s.counters))
		for k, c := range s.counters {
			doc.Counters[k] = c.n
		}
	}
	if len(s.series) > 0 {
		doc.Gauges = make(map[string]Point, len(s.series))
		for k, sr := range s.series {
			if n := len(sr.Points); n > 0 {
				doc.Gauges[k] = sr.Points[n-1]
			}
		}
	}
	if len(s.hists) > 0 {
		doc.Hists = make(map[string]histSnapshot, len(s.hists))
		for k, h := range s.hists {
			doc.Hists[k] = histSnapshot{
				Count: h.Count(), Mean: h.Mean(), Min: h.Min(), Max: h.Max(),
				P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
			}
		}
	}
	return json.Marshal(doc)
}
