// Package fanout is the simulator's one worker pool: Ordered runs
// independent indexed items on a bounded set of goroutines and commits
// them in index order on the caller's goroutine, so whatever a caller
// derives from its commits is the same at any worker count.
package fanout

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError reports a panic recovered from one item's run.
type PanicError struct {
	// Index is the item whose run panicked.
	Index int
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack, taken at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic in item %d: %v\n%s", e.Index, e.Value, e.Stack)
}

// Ordered runs run(w, i) for every i in [0, n) and calls commit(i) in
// index order on the caller's goroutine, each only after run(w, i) has
// returned. Items start in index order on up to workers goroutines; w in
// [0, workers) names the goroutine running the item, so a caller can
// keep per-worker scratch. run must write its result only where commit
// reads it for the same i; the commit point orders the two. A nil
// commit accepts every item.
//
// Workers take the next index as soon as they are free — lookahead is
// not capped — so a worker never idles behind a slow item at the commit
// point. A false commit stops new starts: Ordered waits for the items
// already running, discards them uncommitted, and returns (i, nil) for
// the item whose commit said stop. With workers <= 1 everything runs
// inline, interleaving run(0, i) and commit(i).
//
// An item fails when its run returns an error or panics; a panic is
// recovered as a *PanicError. When the commit point reaches a failed
// item, Ordered stops as after a false commit, without committing it,
// and returns its index and error: the first failure in index order,
// whatever order the workers finished in. Failures past an earlier stop
// are never reported. When every item commits it returns (n, nil).
func Ordered(workers, n int, run func(w, i int) error, commit func(i int) bool) (int, error) {
	outcome := func(i int) error { return try(run, 0, i) }
	if workers = min(workers, n); workers > 1 {
		// done[i] carries item i's outcome; its one-slot buffer lets a
		// worker finish an item the commit loop will never read.
		done := make([]chan error, n)
		for i := range done {
			done[i] = make(chan error, 1)
		}
		var next atomic.Int64
		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < n && !stop.Load(); i = int(next.Add(1) - 1) {
					done[i] <- try(run, w, i)
				}
			}()
		}
		defer func() {
			stop.Store(true)
			wg.Wait()
		}()
		outcome = func(i int) error { return <-done[i] }
	}
	for i := 0; i < n; i++ {
		if err := outcome(i); err != nil {
			return i, err
		}
		if commit != nil && !commit(i) {
			return i, nil
		}
	}
	return n, nil
}

// try calls run(w, i), turning a panic into a *PanicError.
func try(run func(w, i int) error, w, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return run(w, i)
}
