package des

import "testing"

// The kernel reuses its heap's backing array across events and Resets
// (and Resource pools completion records); these tests pin the
// invariants that reuse must preserve: eager cancel removal, handles
// that go inert once their event fires or is cancelled, and Reset-based
// reuse producing identical trajectories.

func TestCancelRemovesEagerly(t *testing.T) {
	s := NewSim()
	s.Schedule(1, func() {})
	h := s.Schedule(2, func() {})
	s.Schedule(3, func() {})
	if got := s.Pending(); got != 3 {
		t.Fatalf("Pending = %d, want 3", got)
	}
	h.Cancel()
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending after Cancel = %d, want 2 (cancelled events must leave the heap immediately)", got)
	}
	h.Cancel() // double-cancel is a no-op
	if got := s.Pending(); got != 2 {
		t.Fatalf("Pending after double Cancel = %d, want 2", got)
	}
	s.Run(10)
	if s.Fired() != 2 {
		t.Fatalf("Fired = %d, want 2", s.Fired())
	}
}

func TestStaleHandleCannotTouchRecycledEvent(t *testing.T) {
	s := NewSim()
	h := s.Schedule(1, func() {})
	s.Run(10) // fires; its heap slot is reused below
	fired := 0
	s.Schedule(1, func() { fired++ }) // takes the same slot
	h.Cancel()                        // stale: seq mismatch, must be a no-op
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending after stale Cancel = %d, want 1", got)
	}
	s.Run(20)
	if fired != 1 {
		t.Fatalf("reused event fired %d times, want 1", fired)
	}
}

func TestCancelledThenRescheduledHandleIsStale(t *testing.T) {
	s := NewSim()
	h := s.Schedule(5, func() { t.Fatal("cancelled event fired") })
	h.Cancel()
	ok := false
	s.Schedule(1, func() { ok = true }) // takes the cancelled event's slot
	h.Cancel()                          // stale again
	s.Run(10)
	if !ok {
		t.Fatal("rescheduled event did not fire")
	}
}

func TestHandleStaleAcrossReset(t *testing.T) {
	s := NewSim()
	h := s.Schedule(1, func() { t.Fatal("event from before Reset fired") })
	s.Reset()
	fired := 0
	s.Schedule(1, func() { fired++ }) // first event of the new epoch
	h.Cancel()                        // must not match it
	s.Run(10)
	if fired != 1 {
		t.Fatalf("post-Reset event fired %d times, want 1", fired)
	}
}

// trialTrace runs a fixed two-resource workload and returns the fired
// event count and final time — a cheap trajectory fingerprint.
func trialTrace(s *Sim) (uint64, Time) {
	r := NewResource(s, "r", 2)
	n := 0
	var loop Action
	loop = func() {
		n++
		if n < 50 {
			r.Submit(Time(float64(n%7)*0.25+0.1), loop)
		}
	}
	for i := 0; i < 4; i++ {
		s.Schedule(Time(i)*0.5, loop)
	}
	s.Run(100)
	return s.Fired(), s.Now()
}

func TestResetReusesSimIdentically(t *testing.T) {
	fresh := NewSim()
	wantFired, wantNow := trialTrace(fresh)

	reused := NewSim()
	// Dirty the sim: leave events pending at the horizon, then Reset.
	reused.Schedule(1, func() {})
	reused.Schedule(500, func() {})
	reused.Run(2)
	reused.Reset()
	if reused.Now() != 0 || reused.Pending() != 0 || reused.Fired() != 0 {
		t.Fatalf("Reset left now=%v pending=%d fired=%d", reused.Now(), reused.Pending(), reused.Fired())
	}
	gotFired, gotNow := trialTrace(reused)
	if gotFired != wantFired || gotNow != wantNow {
		t.Fatalf("reused sim trajectory (%d, %v) != fresh (%d, %v)",
			gotFired, gotNow, wantFired, wantNow)
	}
}

func TestResourceResetReuse(t *testing.T) {
	s := NewSim()
	r := NewResource(s, "r", 1)
	r.Submit(1, nil)
	r.Submit(1, nil) // queued
	s.Run(0.5)       // first job in service
	s.Reset()
	r.Reset()
	if r.busy != 0 || r.QueueLen() != 0 || r.Completed() != 0 {
		t.Fatalf("Reset left busy=%d queue=%d completed=%d", r.busy, r.QueueLen(), r.Completed())
	}
	done := 0
	r.Submit(1, func() { done++ })
	s.Run(10)
	if done != 1 || r.Completed() != 1 {
		t.Fatalf("after reuse: done=%d completed=%d, want 1/1", done, r.Completed())
	}
	if got := r.Utilization(); got <= 0.09 || got >= 0.11 {
		t.Fatalf("Utilization after reuse = %g, want ~0.1", got)
	}
}

func TestScheduleAllocsAmortizeToZero(t *testing.T) {
	s := NewSim()
	var loop Action
	n := 0
	loop = func() {
		n++
		if n < 1000 {
			s.Schedule(1, loop)
		}
	}
	s.Schedule(1, loop)
	allocs := testing.AllocsPerRun(1, func() {
		n = 0
		s.Reset()
		s.Schedule(1, loop)
		s.Run(2000)
	})
	// The heap array is retained across Reset, so a whole re-run of
	// 1000 events should allocate (almost) nothing. Allow slack for
	// runtime noise.
	if allocs > 4 {
		t.Fatalf("schedule loop allocated %.0f objects per run, want ~0", allocs)
	}
}

// BenchmarkScheduleCancel measures the cancel-heavy pattern (timers
// armed and disarmed before firing — the Probes.Stop path, timeout
// guards). Eager removal keeps the heap free of dead events, so the
// churn reuses one slot and allocates nothing.
func BenchmarkScheduleCancel(b *testing.B) {
	s := NewSim()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h := s.Schedule(1e9, func() {})
		h.Cancel()
		if i%1024 == 0 {
			s.Run(0) // let the clock breathe without firing the far event
		}
	}
	if s.Pending() != 0 {
		b.Fatalf("Pending = %d, want 0", s.Pending())
	}
}
