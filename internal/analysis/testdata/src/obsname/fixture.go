// Package fixture exercises the metric-name scheme against the real
// obs.Sink, the one type whose Count/Gauge/Observe/Event names and
// Counter/Series/Hist handle names obsname checks.
package fixture

import "warehousesim/internal/obs"

const stream = "span"

func emit(r *obs.Sink, resource string, t float64) {
	r.Count("trial.completed", 1)
	r.Count("membalde.hits", 1)   // want obsname:"unregistered domain"
	r.Count("fresh_bare", 1)      // want obsname:"bare names are closed"
	r.Count("Trial.Completed", 1) // want obsname:"lowercase"
	r.Observe("latency_sec", t)
	r.Gauge("util."+resource, t, 1)
	r.Gauge("wattage."+resource, t, 1) // want obsname:"unregistered domain"
	r.Gauge("util"+resource, t, 1)     // want obsname:"literal prefix"
	r.Event(stream, t)
	r.Event("request", t)

	r.Counter("trial.completed").Add(1)
	r.Counter("membalde.hits").Add(1) // want obsname:"unregistered domain"
	r.Hist("latency_sec").Add(t)
	r.Hist("Demand.Cpu").Add(t) // want obsname:"lowercase"
	r.Series("qlen."+resource).Add(t, 1)
	r.Series("fresh_bare").Add(t, 1)        // want obsname:"bare names are closed"
	r.Series("qlen"+resource).Add(t, 1)     // want obsname:"literal prefix"
	r.Series("wattage."+resource).Add(t, 1) // want obsname:"unregistered domain"
}

// notARecorder has the method names but is not a Sink: its calls are
// out of scope.
type notARecorder struct{}

func (notARecorder) Count(name string, delta int64) {}

func other(n notARecorder) {
	n.Count("Whatever.Goes", 1)
}
