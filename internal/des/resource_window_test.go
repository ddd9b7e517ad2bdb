package des

import (
	"math"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

// TestResetWindowAcrossBoundary pins the windowed-utilization semantics
// the warm-up discard relies on: resetting mid-job must charge the
// in-flight remainder to the new window only.
func TestResetWindowAcrossBoundary(t *testing.T) {
	sim := NewSim()
	r := NewResource(sim, "cpu", 1)
	r.Submit(10, nil) // busy on [0,10)

	sim.ScheduleAt(5, func() {}) // landmark to advance the clock
	sim.Run(5)
	if u := r.Utilization(); !almost(u, 1) {
		t.Fatalf("pre-reset utilization = %g, want 1", u)
	}

	r.ResetWindow()
	if u := r.Utilization(); u != 0 {
		t.Fatalf("utilization immediately after reset = %g, want 0 (empty window)", u)
	}

	// [5,10): still busy finishing the job; [10,15): idle.
	sim.ScheduleAt(15, func() {})
	sim.Run(15)
	if u := r.Utilization(); !almost(u, 0.5) {
		t.Fatalf("post-reset utilization over [5,15] = %g, want 0.5", u)
	}
	if c := r.Completed(); c != 1 {
		t.Fatalf("completed in new window = %d, want 1", c)
	}
}

// TestResetWindowQueueAccounting checks the queue-length integral across
// a window boundary with jobs waiting: work queued before the reset must
// not leak old integral into the new window, and jobs still waiting keep
// accumulating in the new one.
func TestResetWindowQueueAccounting(t *testing.T) {
	sim := NewSim()
	r := NewResource(sim, "disk", 1)
	r.Submit(4, nil) // occupies [0,4)
	r.Submit(4, nil) // waits [0,4), runs [4,8)
	r.Submit(4, nil) // waits [0,8), runs [8,12)

	sim.ScheduleAt(2, func() {})
	sim.Run(2)
	// Two jobs waiting for the whole first window.
	if q := meanQueueLen(r); !almost(q, 2) {
		t.Fatalf("queue mean over [0,2] = %g, want 2", q)
	}

	r.ResetWindow()
	sim.ScheduleAt(12, func() {})
	sim.Run(12)
	// New window [2,12]: 2 waiting on [2,4), 1 on [4,8), 0 after —
	// integral = 2*2 + 1*4 = 8 over 10 seconds.
	if q := meanQueueLen(r); !almost(q, 0.8) {
		t.Fatalf("queue mean over [2,12] = %g, want 0.8", q)
	}
	// Utilization: busy the whole window.
	if u := r.Utilization(); !almost(u, 1) {
		t.Fatalf("utilization over [2,12] = %g, want 1", u)
	}
	if c := r.Completed(); c != 3 {
		t.Fatalf("completed in new window = %d, want 3", c)
	}
}

// TestResetWindowRepeated exercises several consecutive windows to make
// sure each window's accounting is independent.
func TestResetWindowRepeated(t *testing.T) {
	sim := NewSim()
	r := NewResource(sim, "net", 2)

	// Window 1 [0,4]: one server busy on [0,2) -> util 2/(4*2) = 0.25.
	r.Submit(2, nil)
	sim.ScheduleAt(4, func() {})
	sim.Run(4)
	if u := r.Utilization(); !almost(u, 0.25) {
		t.Fatalf("window 1 utilization = %g, want 0.25", u)
	}

	// Window 2 [4,8]: both servers busy on [4,6) -> util 4/(4*2) = 0.5.
	r.ResetWindow()
	r.Submit(2, nil)
	r.Submit(2, nil)
	sim.ScheduleAt(8, func() {})
	sim.Run(8)
	if u := r.Utilization(); !almost(u, 0.5) {
		t.Fatalf("window 2 utilization = %g, want 0.5", u)
	}

	// Window 3 [8,10]: idle.
	r.ResetWindow()
	sim.ScheduleAt(10, func() {})
	sim.Run(10)
	if u := r.Utilization(); u != 0 {
		t.Fatalf("window 3 utilization = %g, want 0", u)
	}
}

// meanQueueLen is the time-averaged queue length over the current
// measurement window, from the integral the probes difference.
func meanQueueLen(r *Resource) float64 {
	_, q := r.Integrals()
	dt := float64(r.sim.Now() - r.windowStart)
	if dt <= 0 {
		return 0
	}
	return q / dt
}
