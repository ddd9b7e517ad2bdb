// Package experiments regenerates every table and figure of the paper's
// evaluation (Lim et al., ISCA 2008). Each experiment is a named Runner
// producing a textual Report with model results side by side with the
// published numbers (from internal/paper); cmd/whbench drives the
// registry, and EXPERIMENTS.md records the outcomes.
package experiments

import (
	"fmt"
	"strings"

	"warehousesim/internal/obs"
)

// Report is the rendered outcome of one experiment.
type Report struct {
	// ID is the registry key (e.g. "fig2c").
	ID string
	// Title names the paper artifact reproduced.
	Title string
	// Lines is the rendered body.
	Lines []string
}

// String renders the report.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// addf appends a formatted line.
func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// Runner executes one experiment.
type Runner func() (Report, error)

// entry pairs a runner with its registry order.
type entry struct {
	id    string
	title string
	run   Runner
	order int
}

var registry []entry

// register adds an experiment at the next registry position.
func register(id, title string, run Runner) {
	registry = append(registry, entry{id: id, title: title, run: run, order: len(registry)})
}

// IDs returns the experiment ids in registry order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.id
	}
	return out
}

// Titles maps id -> title.
func Titles() map[string]string {
	out := map[string]string{}
	for _, e := range registry {
		out[e.id] = e.title
	}
	return out
}

// recordEntry records one finished experiment's registry-level
// observability. The event's time axis is the registry order, which is
// stable across builds — and, in parallel suite runs, the commit order,
// so recorded streams are identical at any worker count.
func recordEntry(e entry, r Report, err error, rec *obs.Sink) {
	if rec == nil {
		return
	}
	rec.Count("experiments.runs", 1)
	if err != nil {
		rec.Count("experiments.errors", 1)
		rec.Event("experiment", float64(e.order),
			obs.FS("id", e.id), obs.FS("error", err.Error()))
	} else {
		rec.Observe("experiment.report_lines", float64(len(r.Lines)))
		rec.Event("experiment", float64(e.order),
			obs.FS("id", e.id), obs.F("report_lines", float64(len(r.Lines))))
	}
}

// pct renders a fraction as a percent string.
func pct(v float64) string { return fmt.Sprintf("%.0f%%", v*100) }

// ratioX renders a multiple (e.g. "2.1x").
func ratioX(v float64) string { return fmt.Sprintf("%.2fx", v) }
