package des

import "testing"

// The kernel reuses its heap's backing array across events and Resets
// (and Resource pools completion records); these tests pin the
// invariant that reuse must preserve: Reset-based reuse produces
// identical trajectories and allocates nothing once the array is grown.

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
