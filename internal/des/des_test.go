package des

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"warehousesim/internal/stats"
)

func TestScheduleOrdering(t *testing.T) {
	s := NewSim()
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	s.Run(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 10 {
		t.Errorf("final time = %v, want horizon 10", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := NewSim()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func() { order = append(order, i) })
	}
	s.Run(10)
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events out of FIFO order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewSim()
	var times []Time
	s.Schedule(1, func() {
		times = append(times, s.Now())
		s.Schedule(1, func() {
			times = append(times, s.Now())
		})
	})
	s.Run(10)
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("times = %v", times)
	}
}

func TestHorizonStopsClock(t *testing.T) {
	s := NewSim()
	fired := false
	s.Schedule(100, func() { fired = true })
	end := s.Run(10)
	if fired {
		t.Error("event beyond horizon fired")
	}
	if end != 10 {
		t.Errorf("returned time %v", end)
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d", s.Pending())
	}
	// Resuming past the event fires it.
	s.Run(200)
	if !fired {
		t.Error("event did not fire after extending horizon")
	}
}

func TestEventAtHorizonFires(t *testing.T) {
	s := NewSim()
	fired := false
	s.Schedule(10, func() { fired = true })
	s.Run(10)
	if !fired {
		t.Error("event exactly at horizon did not fire")
	}
}

func TestStop(t *testing.T) {
	s := NewSim()
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(Time(i), func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run(100)
	if count != 3 {
		t.Errorf("events after Stop: count = %d", count)
	}
}

// TestStepInsideAction: an action that steps the Sim with RunNext or
// Run fires the next event, not itself again: both settle the running
// event's root first.
func TestStepInsideAction(t *testing.T) {
	for _, c := range []struct {
		name string
		step func(s *Sim)
	}{
		{"RunNext", func(s *Sim) { s.RunNext() }},
		{"Run", func(s *Sim) { s.Run(2) }},
	} {
		s := NewSim()
		var order []int
		s.Schedule(1, func() {
			order = append(order, 1)
			c.step(s)
		})
		s.Schedule(2, func() { order = append(order, 2) })
		s.Run(10)
		if !slices.Equal(order, []int{1, 2}) || s.Fired() != 2 {
			t.Errorf("%s: order %v after %d fired, want [1 2] after 2", c.name, order, s.Fired())
		}
	}
}

// TestResetInsideAction: Reset from an action drops the running event's
// root with the rest, so the action's return pops nothing and its
// next event goes in as the only one queued.
func TestResetInsideAction(t *testing.T) {
	s := NewSim()
	fired := false
	s.Schedule(5, func() {
		s.Reset()
		s.Schedule(1, func() { fired = true })
	})
	s.Schedule(6, func() { t.Error("event queued before Reset fired") })
	if end := s.Run(10); !fired || end != 10 || s.Fired() != 1 {
		t.Fatalf("after Run: fired %v, now %v, Fired %d; want true, 10, 1", fired, end, s.Fired())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	NewSim().Schedule(-1, func() {})
}

func TestNaNDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NaN delay did not panic")
		}
	}()
	NewSim().Schedule(Time(math.NaN()), func() {})
}

func TestScheduleAtNaNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleAt(NaN) did not panic")
		}
	}()
	NewSim().ScheduleAt(Time(math.NaN()), func() {})
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewSim()
	s.Schedule(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("past event did not panic")
			}
		}()
		s.ScheduleAt(1, func() {})
	})
	s.Run(10)
}

// TestScheduleAtNegativeZero interleaves events at +0, -0 and 1: all
// thirty fire in (time, seq) order, the -0 ones among the +0 ones. The
// heap's child selection orders times by their bits, under which a
// stored -0 would sort after every positive time.
func TestScheduleAtNegativeZero(t *testing.T) {
	s := NewSim()
	times := []Time{0, Time(math.Copysign(0, -1)), 1}
	var order, zeros, ones []int
	for i := 0; i < 30; i++ {
		s.ScheduleAt(times[i%3], func() { order = append(order, i) })
		if i%3 == 2 {
			ones = append(ones, i)
		} else {
			zeros = append(zeros, i)
		}
	}
	s.Run(2)
	if want := append(zeros, ones...); !slices.Equal(order, want) {
		t.Fatalf("firing order %v, want %v", order, want)
	}
}

// TestFirstAgreesWithBefore holds the heap's branch-free selector to
// before's order on the key's edge cases, each pair in both directions
// and against itself.
func TestFirstAgreesWithBefore(t *testing.T) {
	// A -0 as ScheduleAt stores it.
	s := NewSim()
	s.ScheduleAt(Time(math.Copysign(0, -1)), func() {})
	negZero := s.events[0].at
	tiny := Time(math.SmallestNonzeroFloat64)
	inf := Time(math.Inf(1))
	cases := []struct {
		name string
		a, b slot
	}{
		{"equal times", slot{at: 3, seq: 1}, slot{at: 3, seq: 2}},
		{"equal times, later seq first", slot{at: 3, seq: 2}, slot{at: 3, seq: 1}},
		{"+0 against normalised -0", slot{at: 0, seq: 1}, slot{at: negZero, seq: 2}},
		{"normalised -0 against +0", slot{at: negZero, seq: 1}, slot{at: 0, seq: 2}},
		{"+Inf against max float", slot{at: inf, seq: 1}, slot{at: math.MaxFloat64, seq: 2}},
		{"+Inf against +Inf", slot{at: inf, seq: 2}, slot{at: inf, seq: 1}},
		{"smallest subnormal against 0", slot{at: tiny, seq: 1}, slot{at: 0, seq: 2}},
		{"two smallest subnormals", slot{at: tiny, seq: 1}, slot{at: tiny, seq: 2}},
		{"adjacent floats", slot{at: 1, seq: 1}, slot{at: Time(math.Nextafter(1, 2)), seq: 2}},
		{"adjacent floats, later seq first", slot{at: Time(math.Nextafter(1, 2)), seq: 1}, slot{at: 1, seq: 2}},
		{"seq across the low word", slot{at: 1, seq: math.MaxUint64}, slot{at: 1, seq: 0}},
	}
	for _, c := range cases {
		for _, p := range [][2]*slot{{&c.a, &c.b}, {&c.b, &c.a}, {&c.a, &c.a}} {
			want := 0
			if p[1].before(p[0]) {
				want = 1
			}
			if got := first(p[0], p[1]); got != want {
				t.Errorf("%s: first(%v/%d, %v/%d) = %d, before says %d",
					c.name, p[0].at, p[0].seq, p[1].at, p[1].seq, got, want)
			}
		}
	}
}

func TestResourceSingleServerSerializes(t *testing.T) {
	s := NewSim()
	r := NewResource(s, "disk", 1)
	var done []Time
	for i := 0; i < 3; i++ {
		r.Submit(2, func() { done = append(done, s.Now()) })
	}
	s.Run(100)
	want := []Time{2, 4, 6}
	if len(done) != 3 {
		t.Fatalf("completions = %v", done)
	}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions = %v, want %v", done, want)
		}
	}
}

func TestResourceMultiServerParallel(t *testing.T) {
	s := NewSim()
	r := NewResource(s, "cpu", 4)
	var done []Time
	for i := 0; i < 4; i++ {
		r.Submit(3, func() { done = append(done, s.Now()) })
	}
	s.Run(100)
	for _, d := range done {
		if d != 3 {
			t.Fatalf("parallel jobs should all finish at t=3: %v", done)
		}
	}
}

func TestResourceUtilization(t *testing.T) {
	s := NewSim()
	r := NewResource(s, "cpu", 2)
	r.Submit(5, nil) // one busy server for 5s of a 10s window => 25%
	s.Run(10)
	if u := r.Utilization(); math.Abs(u-0.25) > 1e-9 {
		t.Errorf("utilization = %g, want 0.25", u)
	}
}

func TestResourceQueueStats(t *testing.T) {
	s := NewSim()
	r := NewResource(s, "disk", 1)
	// 3 jobs of 2s each: queue holds 2 jobs for t in (0,2), 1 for (2,4).
	for i := 0; i < 3; i++ {
		r.Submit(2, nil)
	}
	s.Run(6)
	want := (2.0*2 + 1.0*2) / 6.0
	if q := meanQueueLen(r); math.Abs(q-want) > 1e-9 {
		t.Errorf("mean queue len = %g, want %g", q, want)
	}
	if c := r.Completed(); c != 3 {
		t.Errorf("completed = %d", c)
	}
}

// TestResourceFIFOAcrossCompaction keeps a single-server queue long
// enough, with arrivals interleaved, for its head index to pass half
// the slice several times, and checks FIFO service, the live QueueLen
// and the queue-length integral against a hand count.
func TestResourceFIFOAcrossCompaction(t *testing.T) {
	s := NewSim()
	r := NewResource(s, "disk", 1)
	var served []int
	submitted := 0
	submit := func() {
		id := submitted
		submitted++
		r.Submit(1, func() { served = append(served, id) })
	}
	for i := 0; i < 9; i++ {
		submit()
	}
	for i := 0; i < 12; i++ {
		s.Schedule(Time(i)*1.5+0.5, submit)
	}
	// Every event falls on a multiple of 0.5 s, so sampling mid-step
	// sees the queue length that holds over the whole step.
	integral := 0.0
	for k := 0; k < 60; k++ {
		s.Schedule(Time(k)*0.5+0.25, func() {
			q := r.QueueLen()
			if want := submitted - len(served) - r.busy; q != want {
				t.Fatalf("t=%v: QueueLen = %d, want %d", s.Now(), q, want)
			}
			integral += 0.5 * float64(q)
		})
	}
	s.Run(30)
	if len(served) != submitted || submitted != 21 {
		t.Fatalf("served %d of %d jobs, want 21", len(served), submitted)
	}
	for i, id := range served {
		if id != i {
			t.Fatalf("service order %v is not FIFO", served)
		}
	}
	if _, q := r.Integrals(); math.Abs(q-integral) > 1e-9 {
		t.Errorf("queue integral = %g, hand count %g", q, integral)
	}
}

func TestResourceResetWindow(t *testing.T) {
	s := NewSim()
	r := NewResource(s, "cpu", 1)
	r.Submit(5, nil)
	s.Run(5)
	r.ResetWindow()
	s.Run(10)
	if u := r.Utilization(); u != 0 {
		t.Errorf("utilization after reset = %g, want 0", u)
	}
	if c := r.Completed(); c != 0 {
		t.Errorf("completed after reset = %d", c)
	}
}

func TestResourceZeroServicePreservesOrder(t *testing.T) {
	s := NewSim()
	r := NewResource(s, "nic", 1)
	var order []int
	r.Submit(0, func() { order = append(order, 0) })
	r.Submit(0, func() { order = append(order, 1) })
	s.Run(1)
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("order = %v", order)
	}
}

func TestResourceNegativeServicePanics(t *testing.T) {
	s := NewSim()
	r := NewResource(s, "x", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative service did not panic")
		}
	}()
	r.Submit(-1, nil)
}

func TestResourceBadServersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("servers=0 did not panic")
		}
	}()
	NewResource(NewSim(), "x", 0)
}

// M/M/1 validation: simulated mean response time must match theory
// R = S/(1-rho) within a few percent.
func TestMM1AgainstTheory(t *testing.T) {
	const (
		lambda = 8.0  // arrivals/s
		mu     = 10.0 // service rate
	)
	s := NewSim()
	r := NewResource(s, "mm1", 1)
	rng := stats.NewRNG(42)
	var lat stats.Summary

	var arrive func()
	arrive = func() {
		start := s.Now()
		r.Submit(Time(rng.ExpFloat64()/mu), func() {
			if start > 2000 { // warm-up discard
				lat.Add(float64(s.Now() - start))
			}
		})
		s.Schedule(Time(rng.ExpFloat64()/lambda), arrive)
	}
	s.Schedule(0, arrive)
	s.Run(60000)

	rho := lambda / mu
	wantR := (1 / mu) / (1 - rho)
	if got := lat.Mean(); math.Abs(got-wantR)/wantR > 0.05 {
		t.Errorf("M/M/1 mean response = %g, theory %g", got, wantR)
	}
	if u := r.Utilization(); math.Abs(u-rho) > 0.02 {
		t.Errorf("M/M/1 utilization = %g, theory %g", u, rho)
	}
}

// M/M/m validation against Erlang-C waiting probability.
func TestMMmAgainstTheory(t *testing.T) {
	const (
		m      = 4
		lambda = 3.2
		mu     = 1.0
	)
	s := NewSim()
	r := NewResource(s, "mmm", m)
	rng := stats.NewRNG(7)
	var lat stats.Summary

	var arrive func()
	arrive = func() {
		start := s.Now()
		r.Submit(Time(rng.ExpFloat64()/mu), func() {
			if start > 2000 {
				lat.Add(float64(s.Now() - start))
			}
		})
		s.Schedule(Time(rng.ExpFloat64()/lambda), arrive)
	}
	s.Schedule(0, arrive)
	s.Run(40000)

	// Erlang-C.
	rho := lambda / (m * mu)
	a := lambda / mu
	sum := 0.0
	fact := 1.0
	for k := 0; k < m; k++ {
		if k > 0 {
			fact *= float64(k)
		}
		sum += math.Pow(a, float64(k)) / fact
	}
	factM := fact * float64(m)
	pWait := (math.Pow(a, m) / (factM * (1 - rho))) / (sum + math.Pow(a, m)/(factM*(1-rho)))
	wantR := 1/mu + pWait/(float64(m)*mu-lambda)
	if got := lat.Mean(); math.Abs(got-wantR)/wantR > 0.05 {
		t.Errorf("M/M/%d mean response = %g, theory %g", m, got, wantR)
	}
}

// Property: total completions never exceed submissions, and utilization
// stays in [0,1], across random job mixes.
func TestQuickResourceInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		s := NewSim()
		servers := 1 + rng.Intn(8)
		r := NewResource(s, "r", servers)
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			s.Schedule(Time(rng.Float64()*10), func() {
				r.Submit(Time(rng.Float64()*2), nil)
			})
		}
		s.Run(1000)
		u := r.Utilization()
		return r.Completed() == uint64(n) && u >= 0 && u <= 1+1e-9 && r.QueueLen() == 0 && r.busy == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
