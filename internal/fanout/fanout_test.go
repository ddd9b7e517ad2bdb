package fanout

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// TestOrderedCommitsInOrder: every item runs exactly once, writes its
// own slot, and commits in index order, so whatever the caller merges is
// independent of the worker count.
func TestOrderedCommitsInOrder(t *testing.T) {
	const n = 37
	for _, workers := range []int{0, 1, 3, 64} {
		out := make([]int, n)
		var runs atomic.Int64
		var committed []int
		err := Ordered(workers, n, func(w, i int) {
			if w < 0 || w >= max(1, min(workers, n)) {
				t.Errorf("workers=%d: item %d ran on worker %d", workers, i, w)
			}
			runs.Add(1)
			out[i] = i * i
		}, func(i int) bool {
			if out[i] != i*i {
				t.Errorf("workers=%d: commit %d saw slot %d", workers, i, out[i])
			}
			committed = append(committed, i)
			return true
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if runs.Load() != n {
			t.Fatalf("workers=%d: %d runs, want %d", workers, runs.Load(), n)
		}
		for i, c := range committed {
			if c != i {
				t.Fatalf("workers=%d: commit order %v", workers, committed)
			}
		}
		if len(committed) != n {
			t.Fatalf("workers=%d: %d commits, want %d", workers, len(committed), n)
		}
	}
}

// TestOrderedInlineStopsAtFalseCommit: one worker runs exactly k+1
// items when commit k returns false.
func TestOrderedInlineStopsAtFalseCommit(t *testing.T) {
	const n, k = 20, 6
	var ran, commits int
	err := Ordered(1, n, func(_, _ int) { ran++ }, func(i int) bool {
		commits++
		return i != k
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran != k+1 || commits != k+1 {
		t.Fatalf("ran %d items and %d commits, want %d of each", ran, commits, k+1)
	}
}

// TestOrderedStopBoundsStarts: a false commit stops new starts, so a
// long run stopped early starts O(workers) items past the stop, not the
// rest of n, and nothing past the stop commits.
func TestOrderedStopBoundsStarts(t *testing.T) {
	const n, k = 1000, 10
	for _, workers := range []int{2, 4, 8} {
		stopped := make(chan struct{})
		var past atomic.Int64
		last := -1
		err := Ordered(workers, n, func(_, i int) {
			if i > k {
				past.Add(1)
				// Hold speculative work until commit k has stopped the run,
				// so each worker can hold at most one item past k.
				<-stopped
			}
		}, func(i int) bool {
			last = i
			if i == k {
				close(stopped)
				return false
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if last != k {
			t.Fatalf("workers=%d: last commit %d, want %d", workers, last, k)
		}
		// Each worker holds one item when the stop lands and may start
		// one more while the stop flag is being set.
		if got := past.Load(); got > 2*int64(workers) {
			t.Fatalf("workers=%d: %d items past the stop started, want <= %d", workers, got, 2*workers)
		}
	}
}

// TestOrderedPanicBecomesError: a panicking run surfaces as a
// *PanicError for its index once the commit point reaches it, after
// every earlier item committed, and no later item commits.
func TestOrderedPanicBecomesError(t *testing.T) {
	const n, bad = 50, 7
	for _, workers := range []int{1, 4} {
		last := -1
		err := Ordered(workers, n, func(_, i int) {
			if i == bad {
				panic("broken model")
			}
		}, func(i int) bool {
			last = i
			return true
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Index != bad || pe.Value != "broken model" {
			t.Fatalf("workers=%d: panic at %d with %v, want %d with %q", workers, pe.Index, pe.Value, bad, "broken model")
		}
		if !strings.Contains(string(pe.Stack), "fanout.TestOrderedPanicBecomesError") {
			t.Fatalf("workers=%d: stack does not name the panicking function:\n%s", workers, pe.Stack)
		}
		if last != bad-1 {
			t.Fatalf("workers=%d: last commit %d, want %d", workers, last, bad-1)
		}
	}
}

// TestOrderedPanicPastStopIgnored: a panic in speculative work past a
// false commit is discarded with the rest of that work.
func TestOrderedPanicPastStopIgnored(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := Ordered(workers, 10, func(_, i int) {
			if i == 5 {
				panic("past the stop")
			}
		}, func(i int) bool { return i < 2 })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}
