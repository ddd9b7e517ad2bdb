// Package metrics defines the paper's evaluation metrics (§2.2):
// sustained performance under QoS, and performance per watt, per
// infrastructure dollar, per power-and-cooling dollar, and per total-TCO
// dollar. It also builds the relative (percent-of-baseline) tables that
// Figure 2(c), Figure 4(c), Table 3(b) and Figure 5 report, including the
// suite-level harmonic-mean rows.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"warehousesim/internal/stats"
)

// Measurement is one (workload, system) evaluation outcome.
type Measurement struct {
	Workload string
	System   string

	// Perf is sustained requests/second for the interactive benchmarks,
	// or 1/execution-time (jobs per second) for batch benchmarks, so that
	// "higher is better" holds uniformly and harmonic means are
	// meaningful (§3.2).
	Perf float64
	// Unit documents Perf ("RPS" or "1/s").
	Unit string
	// QoSMet reports whether the QoS constraint held at this throughput.
	QoSMet bool

	// PowerW is consumed power per server (activity-factored, including
	// switch share).
	PowerW float64
	// InfUSD, PCUSD and TCOUSD are per-server lifecycle dollars.
	InfUSD, PCUSD, TCOUSD float64
}

// PerfPerWatt returns Perf/W.
func (m Measurement) PerfPerWatt() float64 { return safeDiv(m.Perf, m.PowerW) }

// PerfPerInfUSD returns Perf per infrastructure dollar.
func (m Measurement) PerfPerInfUSD() float64 { return safeDiv(m.Perf, m.InfUSD) }

// PerfPerPCUSD returns Perf per burdened power-and-cooling dollar.
func (m Measurement) PerfPerPCUSD() float64 { return safeDiv(m.Perf, m.PCUSD) }

// PerfPerTCOUSD returns the headline metric, Perf/TCO-$.
func (m Measurement) PerfPerTCOUSD() float64 { return safeDiv(m.Perf, m.TCOUSD) }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// Metric selects one of the paper's efficiency metrics.
type Metric int

// The metrics reported in Figure 2(c) and Figure 5.
const (
	Perf Metric = iota
	PerfPerInf
	PerfPerWatt
	PerfPerPC
	PerfPerTCO
)

// String implements fmt.Stringer with the paper's labels.
func (k Metric) String() string {
	switch k {
	case Perf:
		return "Perf"
	case PerfPerInf:
		return "Perf/Inf-$"
	case PerfPerWatt:
		return "Perf/W"
	case PerfPerPC:
		return "Perf/P&C-$"
	case PerfPerTCO:
		return "Perf/TCO-$"
	default:
		return fmt.Sprintf("Metric(%d)", int(k))
	}
}

// Value extracts the chosen metric from a measurement.
func (m Measurement) Value(k Metric) float64 {
	switch k {
	case Perf:
		return m.Perf
	case PerfPerInf:
		return m.PerfPerInfUSD()
	case PerfPerWatt:
		return m.PerfPerWatt()
	case PerfPerPC:
		return m.PerfPerPCUSD()
	case PerfPerTCO:
		return m.PerfPerTCOUSD()
	default:
		return math.NaN()
	}
}

// Table is a collection of measurements across workloads and systems.
type Table struct {
	rows []Measurement
}

// Add appends a measurement.
func (t *Table) Add(m Measurement) { t.rows = append(t.rows, m) }

// Rows returns measurements in insertion order.
func (t *Table) Rows() []Measurement { return t.rows }

// Get returns the measurement for (workload, system).
func (t *Table) Get(workload, system string) (Measurement, bool) {
	for _, m := range t.rows {
		if m.Workload == workload && m.System == system {
			return m, true
		}
	}
	return Measurement{}, false
}

// Workloads returns the distinct workload names in first-seen order.
func (t *Table) Workloads() []string {
	return t.distinct(func(m Measurement) string { return m.Workload })
}

// Systems returns the distinct system names in first-seen order.
func (t *Table) Systems() []string { return t.distinct(func(m Measurement) string { return m.System }) }

func (t *Table) distinct(key func(Measurement) string) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range t.rows {
		k := key(m)
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// Relative computes metric values normalized to the baseline system
// (baseline == 1.0), per workload: the percentages of Figure 2(c).
// The result maps workload -> system -> relative value. Workloads whose
// baseline measurement is missing, zero or NaN (e.g. a zero denominator
// turned into NaN by safeDiv) are skipped rather than propagated.
func (t *Table) Relative(k Metric, baseline string) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, w := range t.Workloads() {
		base, ok := t.Get(w, baseline)
		if !ok || base.Value(k) == 0 || math.IsNaN(base.Value(k)) {
			continue
		}
		row := map[string]float64{}
		for _, s := range t.Systems() {
			if m, ok := t.Get(w, s); ok {
				row[s] = m.Value(k) / base.Value(k)
			}
		}
		out[w] = row
	}
	return out
}

// HMeanRelative returns, per system, the harmonic mean across workloads
// of the relative metric values — the "HMean" rows of Figure 2(c) and
// Figure 5. Systems are omitted — explicitly, not as NaN rows — when any
// workload is missing or any relative value is non-positive or NaN (a
// zero-denominator measurement upstream), so an undefined mean can never
// silently contaminate a suite table.
func (t *Table) HMeanRelative(k Metric, baseline string) map[string]float64 {
	rel := t.Relative(k, baseline)
	workloads := t.Workloads()
	out := map[string]float64{}
	for _, s := range t.Systems() {
		vals := make([]float64, 0, len(workloads))
		complete := true
		for _, w := range workloads {
			row, ok := rel[w]
			if !ok {
				complete = false
				break
			}
			v, ok := row[s]
			if !ok {
				complete = false
				break
			}
			vals = append(vals, v)
		}
		if !complete {
			continue
		}
		if hm, ok := stats.HarmonicMeanOK(vals); ok {
			out[s] = hm
		}
	}
	return out
}

// SortedKeys returns map keys sorted lexically — a convenience for
// deterministic report rendering.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
