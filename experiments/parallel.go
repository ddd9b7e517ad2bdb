package experiments

// Two levels of parallelism compose, both on fanout.Ordered:
//
//   - Execute (execute.go) fans whole experiments across a worker pool
//     and commits their results — reports, registry-level observability,
//     progress callbacks — strictly in registry order.
//   - The cell sweeps INSIDE an experiment (validate, ext-fleet and the
//     design x profile sweeps of sweep.go) fan their independent cells
//     across SweepParallelism workers, with results written to
//     cell-indexed slots and merged in cell order.
//
// Workers may compute ahead of the commit point, but nothing observable
// (report order, recorder contents, error selection) depends on
// completion order, so output is byte-identical at any worker count.
// Each cell must be self-contained — own Sim, own RNG, own generator —
// which every registered experiment already guarantees.

// sweepParallelism is the worker count experiments use for their
// internal cell sweeps; 1 means sequential. Set it once, before running
// experiments — it is read concurrently by suite workers and must not
// change mid-run.
var sweepParallelism = 1

// SetSweepParallelism sets the internal-sweep worker count (values < 1
// clamp to 1). Call before Execute, never during.
func SetSweepParallelism(n int) {
	if n < 1 {
		n = 1
	}
	sweepParallelism = n
}

// SweepParallelism returns the current internal-sweep worker count.
func SweepParallelism() int { return sweepParallelism }

// SuiteProgress describes one committed experiment of a suite run.
type SuiteProgress struct {
	// ID is the experiment just committed; Index its registry position.
	ID    string
	Index int
	// Done experiments out of Total have committed (Done = Index+1 as
	// long as no experiment errored).
	Done, Total int
}
