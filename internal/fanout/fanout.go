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
	return Window(workers, n, n, run, commit)
}

// Window is Ordered with its lookahead capped at ahead items: item i
// starts only after commit(i-ahead) has returned, so at most ahead
// items are running or waiting to commit at once. A caller may
// therefore give each item the slot i%ahead of a ring of ahead buffers,
// which no two items touch at once. At most ahead workers run; with
// ahead <= 1 everything runs inline. Ordered is Window with ahead = n.
// Stops and failures behave as Ordered documents.
func Window(workers, ahead, n int, run func(w, i int) error, commit func(i int) bool) (int, error) {
	outcome := func(i int) error { return try(run, 0, i) }
	workers = min(workers, ahead, n)
	free := tokens(workers, ahead, n)
	if workers > 1 {
		// done[i%len(done)] carries item i's outcome; its one-slot
		// buffer lets a worker finish an item the commit loop will never
		// read. Item i reuses the slot of item i-ahead only once that
		// item's outcome has been read, since its commit came first.
		done := make([]chan error, min(ahead, n))
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
				for {
					if free != nil {
						if _, ok := <-free; !ok {
							return // stopped while waiting for a token
						}
					}
					i := int(next.Add(1) - 1)
					if i >= n || stop.Load() {
						return
					}
					done[i%len(done)] <- try(run, w, i)
				}
			}()
		}
		defer func() {
			stop.Store(true)
			if free != nil {
				close(free)
			}
			wg.Wait()
		}()
		outcome = func(i int) error { return <-done[i%len(done)] }
	}
	for i := 0; i < n; i++ {
		if err := outcome(i); err != nil {
			return i, err
		}
		if commit != nil && !commit(i) {
			return i, nil
		}
		if free != nil {
			free <- struct{}{}
		}
	}
	return n, nil
}

// tokens returns the lookahead tokens of a Window whose workers run
// items in parallel and whose lookahead is capped, or nil: a worker
// takes one before it claims an index, and the commit loop returns one
// after each commit, so no item starts more than ahead past the commit
// point.
func tokens(workers, ahead, n int) chan struct{} {
	if workers <= 1 || ahead >= n {
		return nil
	}
	free := make(chan struct{}, ahead)
	for range ahead {
		free <- struct{}{}
	}
	return free
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
