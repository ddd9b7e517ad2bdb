package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"warehousesim/internal/cluster"
	"warehousesim/internal/obs"
)

// withStubRegistry swaps the package registry for synthetic entries so
// the suite engine can be exercised without running real experiments.
func withStubRegistry(t *testing.T, entries []entry) {
	t.Helper()
	saved := registry
	registry = entries
	t.Cleanup(func() { registry = saved })
}

func stubEntries(n int, failAt int) []entry {
	out := make([]entry, n)
	for i := 0; i < n; i++ {
		i := i
		out[i] = entry{
			id:    fmt.Sprintf("stub%02d", i),
			title: fmt.Sprintf("stub experiment %d", i),
			order: i,
			run: func() (Report, error) {
				if i == failAt {
					return Report{}, errors.New("synthetic failure")
				}
				r := Report{ID: fmt.Sprintf("stub%02d", i), Title: "stub"}
				for l := 0; l <= i; l++ {
					r.addf("line %d of %d", l, i)
				}
				return r, nil
			},
		}
	}
	return out
}

// suiteRun captures everything observable from one full-registry
// Execute call.
type suiteRun struct {
	reps     []Report
	err      string
	export   []byte
	progress []SuiteProgress
}

func runSuite(t *testing.T, par int) suiteRun {
	t.Helper()
	sink := obs.NewSink()
	var prog []SuiteProgress
	reps, err := Execute(RunSpec{Recorder: sink, Parallelism: par,
		Progress: func(p SuiteProgress) { prog = append(prog, p) }})
	var buf bytes.Buffer
	if werr := sink.WriteJSONL(&buf); werr != nil {
		t.Fatal(werr)
	}
	s := suiteRun{reps: reps, export: buf.Bytes(), progress: prog}
	if err != nil {
		s.err = err.Error()
	}
	return s
}

// TestExecuteParMatchesSequential: reports, recorded observability, and
// progress callbacks are byte-identical at any worker count.
func TestExecuteParMatchesSequential(t *testing.T) {
	withStubRegistry(t, stubEntries(9, -1))
	seq := runSuite(t, 1)
	if len(seq.reps) != 9 {
		t.Fatalf("sequential run returned %d reports, want 9", len(seq.reps))
	}
	for _, par := range []int{2, 4, 16} {
		got := runSuite(t, par)
		if !reflect.DeepEqual(got.reps, seq.reps) {
			t.Fatalf("par=%d reports differ from sequential", par)
		}
		if !bytes.Equal(got.export, seq.export) {
			t.Fatalf("par=%d obs export differs from sequential", par)
		}
		if !reflect.DeepEqual(got.progress, seq.progress) {
			t.Fatalf("par=%d progress %+v != sequential %+v", par, got.progress, seq.progress)
		}
	}
}

// TestExecuteParErrorEquivalence: an error at registry position i
// yields the same error and the same recorded prefix at any worker
// count — speculative results past the failure are discarded
// uncommitted.
func TestExecuteParErrorEquivalence(t *testing.T) {
	withStubRegistry(t, stubEntries(7, 3))
	seq := runSuite(t, 1)
	if seq.err == "" {
		t.Fatal("sequential run did not surface the synthetic failure")
	}
	if len(seq.progress) != 3 {
		t.Fatalf("sequential run committed %d experiments before the failure, want 3", len(seq.progress))
	}
	for _, par := range []int{2, 8} {
		got := runSuite(t, par)
		if got.err != seq.err {
			t.Fatalf("par=%d error %q != sequential %q", par, got.err, seq.err)
		}
		if !bytes.Equal(got.export, seq.export) {
			t.Fatalf("par=%d obs export differs from sequential after failure", par)
		}
		if !reflect.DeepEqual(got.progress, seq.progress) {
			t.Fatalf("par=%d progress after failure %+v != %+v", par, got.progress, seq.progress)
		}
	}
}

// TestExecutePanicIsAnError: an experiment that panics on a suite
// worker fails the suite with an error naming it, instead of killing
// the process, and the experiments before it still commit.
func TestExecutePanicIsAnError(t *testing.T) {
	entries := stubEntries(5, -1)
	entries[2].run = func() (Report, error) { panic("broken experiment") }
	withStubRegistry(t, entries)
	got := runSuite(t, 2)
	if want := "experiments: stub02: panic in item 2: broken experiment"; !strings.HasPrefix(got.err, want) {
		t.Fatalf("err = %q, want prefix %q", got.err, want)
	}
	if len(got.progress) != 2 {
		t.Fatalf("%d experiments committed before the panic, want 2", len(got.progress))
	}
}

// TestCellSweepParMatchesSequential: a cell sweep's report is the same
// at one and two sweep workers. Under -race it also holds the sweeps to
// keeping core.Evaluator, whose flash-hit-rate cache is a plain map, on
// the calling goroutine (N2 cells reach that cache).
func TestCellSweepParMatchesSequential(t *testing.T) {
	saved := SweepParallelism()
	t.Cleanup(func() { SetSweepParallelism(saved) })
	run := func(par int) string {
		SetSweepParallelism(par)
		reps, err := Execute(RunSpec{IDs: []string{"ext-fleet"}, Fleet: &cluster.FleetTopology{Racks: 8, HotRacks: 1}})
		if err != nil {
			t.Fatal(err)
		}
		return reps[0].String()
	}
	if seq, par := run(1), run(2); seq != par {
		t.Fatalf("ext-fleet at 2 sweep workers:\n%s\nsequential:\n%s", par, seq)
	}
}

func TestSetSweepParallelismClamps(t *testing.T) {
	saved := SweepParallelism()
	t.Cleanup(func() { SetSweepParallelism(saved) })
	SetSweepParallelism(-5)
	if got := SweepParallelism(); got != 1 {
		t.Fatalf("SweepParallelism after SetSweepParallelism(-5) = %d, want 1", got)
	}
	SetSweepParallelism(8)
	if got := SweepParallelism(); got != 8 {
		t.Fatalf("SweepParallelism = %d, want 8", got)
	}
}
