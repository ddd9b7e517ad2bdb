package experiments

import (
	"fmt"
	"sort"
	"strings"

	"warehousesim/internal/cluster"
	"warehousesim/internal/fanout"
	"warehousesim/internal/obs"
)

// RunSpec describes one experiments invocation: which experiments to
// run, where to record registry-level observability, how many suite
// workers to fan across, and what to call as results commit. The zero
// value runs the whole registry sequentially with no recording; it is
// the only entry point — the legacy Run/RunAll wrapper family was
// removed in favor of spelling the point in this space directly.
type RunSpec struct {
	// IDs selects experiments by registry id, in the order given; an
	// unknown id fails the whole call before anything runs. Empty means
	// every registered experiment in registry order.
	IDs []string
	// Recorder receives registry-level observability — an "experiment"
	// event plus run/error counters per experiment (see recordEntry).
	// Nil records nothing.
	Recorder *obs.Sink
	// Parallelism is the suite-level worker count; values <= 1 run
	// sequentially. Output is byte-identical at every value: workers
	// speculate ahead, but reports, recorder contents, and Progress
	// calls commit strictly in selection order.
	Parallelism int
	// Progress, when non-nil, is called after each experiment commits.
	Progress func(SuiteProgress)
	// Fleet, when non-nil, overrides the fleet shape the ext-fleet
	// experiment sweeps (whbench wires the -racks/-hot-racks/-balancer
	// flags through here). Experiments other than ext-fleet ignore it.
	Fleet *cluster.FleetTopology
}

// fleetOverride is the RunSpec.Fleet value of the Execute call in
// flight, consumed by the ext-fleet experiment (fleet.go). Execute
// resets it after its workers drain, so it is never read concurrently
// with a write.
var fleetOverride *cluster.FleetTopology

// Execute runs the experiments selected by spec and returns their
// reports in selection order. An error from the experiment at selection
// position i aborts the suite with that error; speculative results past
// i are discarded, exactly as a sequential loop would never have
// produced them.
func Execute(spec RunSpec) ([]Report, error) {
	entries, err := selectEntries(spec.IDs)
	if err != nil {
		return nil, err
	}
	if spec.Fleet != nil {
		fleetOverride = spec.Fleet
		// executeEntries waits for its speculative workers before
		// returning, so the reset cannot race a reader.
		defer func() { fleetOverride = nil }()
	}
	return executeEntries(entries, spec.Recorder, spec.Parallelism, spec.Progress)
}

// selectEntries resolves a RunSpec id list against the registry.
func selectEntries(ids []string) ([]entry, error) {
	if len(ids) == 0 {
		return registry, nil
	}
	byID := make(map[string]entry, len(registry))
	for _, e := range registry {
		byID[e.id] = e
	}
	out := make([]entry, 0, len(ids))
	for _, id := range ids {
		e, ok := byID[id]
		if !ok {
			known := IDs()
			sort.Strings(known)
			return nil, fmt.Errorf("experiments: unknown id %q (known: %s)", id, strings.Join(known, ", "))
		}
		out = append(out, e)
	}
	return out, nil
}

// executeEntries runs entries through fanout.Ordered: workers may
// compute ahead of the commit point, but nothing observable (report
// order, recorder contents, error selection, progress calls) depends on
// completion order, so output is byte-identical at any worker count. No
// experiment starts after one fails.
func executeEntries(entries []entry, rec *obs.Sink, par int, onDone func(SuiteProgress)) ([]Report, error) {
	type result struct {
		rep Report
		err error
	}
	results := make([]result, len(entries))
	out := make([]Report, 0, len(entries))
	i, err := fanout.Ordered(par, len(entries), func(_, i int) error {
		results[i].rep, results[i].err = entries[i].run()
		return nil
	}, func(i int) bool {
		e, r := entries[i], results[i]
		recordEntry(e, r.rep, r.err, rec)
		if r.err != nil {
			return false
		}
		out = append(out, r.rep)
		if onDone != nil {
			onDone(SuiteProgress{ID: e.id, Index: e.order, Done: len(out), Total: len(entries)})
		}
		return true
	})
	// Ordered stops at the first failed entry: a panic, which never
	// reaches commit and so goes unrecorded (its stack would make the
	// export differ run to run), or an error its commit recorded.
	if i < len(entries) {
		if err == nil {
			err = results[i].err
		}
		return nil, fmt.Errorf("experiments: %s: %w", entries[i].id, err)
	}
	return out, nil
}
