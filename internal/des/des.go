// Package des implements the discrete-event simulation kernel that
// underlies the performance side of the evaluation infrastructure.
//
// The paper evaluated its benchmark suite on the COTSon full-system
// simulator; this repository substitutes a calibrated queueing simulation
// (see DESIGN.md §2). The kernel here is deliberately small and
// allocation-light: a 4-ary min-heap of event values with deterministic
// tie-breaking, whose backing array survives Reset so steady-state
// scheduling allocates nothing (DESIGN.md §7), plus multi-server
// resources with FIFO queueing and time-weighted utilization accounting.
// The heap orders events by (time, scheduling order); popping picks the
// earliest of four children by integer borrow arithmetic on that key
// rather than by compare-and-branch, because which of four random times
// is earliest is a branch the CPU mispredicts about half the time.
//
// A firing event stays at the heap root, marked taken, while its action
// runs: most actions schedule exactly one follow-on event (78% of the
// events of a flat adaptive search), and the first ScheduleAt of an
// action writes its event into the root and sifts it down, one sift in
// place of a pop's and a push's. An action that schedules nothing has
// its root popped when it returns. Pending, PeekNext, Run and RunNext
// settle a taken root (pop it) before they look at the heap, so no
// caller ever sees the running event as pending. Events are never
// cancelled: the heap only ever removes its root.
//
// Models are written in continuation-passing style: an event's action
// schedules the follow-on events. This avoids goroutine-per-entity
// simulation, keeps runs single-threaded and reproducible, and lets the
// benchmark harness simulate hundreds of server-years per wall second.
package des

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is simulated time in seconds since the start of the run.
type Time float64

// Action is the body of a scheduled event.
type Action func()

// slot is one queued event. seq counts Schedule calls over the Sim's
// lifetime, so (at, seq) is a total order, FIFO among simultaneous events.
type slot struct {
	at  Time
	seq uint64
	act Action
}

// before reports whether a fires before b: earlier time first, and
// among equal times the lower seq. This is the heap's one ordering
// rule. ScheduleAt rejects NaN and stores -0 as +0, so every queued at
// is +0 or a positive float (+Inf included), whose IEEE-754 bits order
// as unsigned integers exactly as the values do; the rule is therefore
// also the unsigned order of the 128-bit key (Float64bits(at), seq),
// which first evaluates without a branch.
func (a *slot) before(b *slot) bool { return a.at < b.at || a.at == b.at && a.seq < b.seq }

// first returns 1 when b comes before a and 0 otherwise: the borrow out
// of the 128-bit subtraction key(b) - key(a), which compiles to SUB/SBB
// with no branch. It is before's order on the key, for the heap's
// child selection, where which of four random children is smallest is a
// coin toss a branch would mispredict.
//
//perf:hotpath
func first(a, b *slot) int {
	_, borrow := bits.Sub64(b.seq, a.seq, 0)
	_, borrow = bits.Sub64(math.Float64bits(float64(b.at)), math.Float64bits(float64(a.at)), borrow)
	return int(borrow)
}

// Sim is a single-threaded discrete-event simulator. The zero value is
// not usable; call NewSim.
type Sim struct {
	now     Time
	events  []slot // 4-ary min-heap on (at, seq)
	seq     uint64
	stopped bool
	// taken marks events[0] as the running event: already fired, no
	// longer pending, and free for its action's first ScheduleAt.
	taken bool
	fired uint64
}

// NewSim returns a simulator positioned at time zero.
func NewSim() *Sim {
	return &Sim{}
}

// Now returns the current simulated time.
func (s *Sim) Now() Time { return s.now }

// Fired returns the number of events executed so far (for tests and
// runaway detection).
func (s *Sim) Fired() uint64 { return s.fired }

// Schedule runs act after delay (>= 0) of simulated time. It panics on
// negative or NaN delays: those are always model bugs and silently
// clamping them corrupts results.
//
//perf:hotpath
func (s *Sim) Schedule(delay Time, act Action) {
	if delay < 0 || math.IsNaN(float64(delay)) {
		//whvet:allow hotpath cold panic path: a negative delay is a model bug, the guard never fires in a correct run
		panic(fmt.Sprintf("des: negative or NaN delay %v at t=%v", delay, s.now))
	}
	s.ScheduleAt(s.now+delay, act)
}

// ScheduleAt runs act at absolute time at (>= Now). It panics when at is
// before Now or NaN. A time of -0 is stored as +0, the key's one
// non-positive float (see before). Inside an action, the first call
// takes the running event's root slot and sifts down from it; every
// other call appends and sifts up.
//
//perf:hotpath
func (s *Sim) ScheduleAt(at Time, act Action) {
	if !(at >= s.now) {
		//whvet:allow hotpath cold panic path: scheduling into the past (or at NaN) is a model bug, the guard never fires in a correct run
		panic(fmt.Sprintf("des: event scheduled in the past: %v < now %v", at, s.now))
	}
	s.seq++
	e := slot{at: at + 0, seq: s.seq, act: act}
	if s.taken {
		s.taken = false
		s.siftDown(0, e)
	} else {
		s.events = append(s.events, slot{})
		s.siftUp(len(s.events)-1, e)
	}
}

// siftUp places e in the heap by moving the hole at index i towards
// the root past every parent that e precedes.
//
//perf:hotpath
func (s *Sim) siftUp(i int, e slot) {
	q := s.events
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = e
}

// siftDown places e in the heap by moving the hole at index i towards
// the leaves past every smallest child that precedes e. A full group of
// four children is reduced by first without a branch; the partial last
// group keeps the compare loop. The stop test stays a branch on before:
// once the hole is deep it nearly always descends, so it predicts well.
//
//perf:hotpath
func (s *Sim) siftDown(i int, e slot) {
	q := s.events
	for m := 4*i + 1; m < len(q); m = 4*i + 1 {
		if m+3 < len(q) {
			c := q[m : m+4 : m+4]
			a := first(&c[0], &c[1])
			b := 2 + first(&c[2], &c[3])
			m += a + (b-a)*first(&c[a], &c[b])
		} else {
			for j := m + 1; j < len(q); j++ {
				if q[j].before(&q[m]) {
					m = j
				}
			}
		}
		if !q[m].before(&e) {
			break
		}
		q[i] = q[m]
		i = m
	}
	q[i] = e
}

// pop deletes the root event. The last slot is cleared so the backing
// array never retains a closure.
//
//perf:hotpath
func (s *Sim) pop() {
	q := s.events
	n := len(q) - 1
	last := q[n]
	q[n] = slot{}
	s.events = q[:n]
	if n > 0 {
		s.siftDown(0, last)
	}
}

// settle pops a taken root: the running event's action has returned,
// or is about to read the heap, without scheduling into its slot.
//
//perf:hotpath
func (s *Sim) settle() {
	if s.taken {
		s.taken = false
		s.pop()
	}
}

// fire advances the clock to the earliest event and runs it, leaving it
// at the root, taken, until its action schedules into the slot or
// returns.
//
//perf:hotpath
func (s *Sim) fire() {
	e := &s.events[0]
	s.now = e.at
	s.fired++
	s.taken = true
	e.act()
	s.settle()
}

// Stop halts Run after the current event completes.
func (s *Sim) Stop() { s.stopped = true }

// Run executes events until the queue empties, until Stop is called, or
// until simulated time would pass until. It returns the simulation time
// at exit. Events scheduled exactly at the horizon still fire. Like
// ScheduleAt, it panics when until is before Now or NaN: the clock
// never runs backwards.
//
//perf:hotpath
func (s *Sim) Run(until Time) Time {
	if !(until >= s.now) {
		//whvet:allow hotpath cold panic path: a horizon in the past (or NaN) is a model bug, the guard never fires in a correct run
		panic(fmt.Sprintf("des: run horizon in the past: %v < now %v", until, s.now))
	}
	s.settle()
	s.stopped = false
	for len(s.events) > 0 && !s.stopped {
		if s.events[0].at > until {
			// Advance the clock to the horizon; pending events stay queued.
			s.now = until
			return s.now
		}
		s.fire()
	}
	if len(s.events) == 0 {
		s.now = until
	}
	return s.now
}

// Pending returns the number of events still queued. The running event
// has fired, so it does not count here.
func (s *Sim) Pending() int {
	s.settle()
	return len(s.events)
}

// PeekNext returns the timestamp of the earliest queued event without
// executing it. ok is false when the queue is empty. The sharded kernel
// uses this to decide whether to run a local event or deliver a pending
// cross-shard message first.
func (s *Sim) PeekNext() (at Time, ok bool) {
	s.settle()
	if len(s.events) == 0 {
		return 0, false
	}
	return s.events[0].at, true
}

// RunNext executes exactly the earliest queued event and returns true,
// or returns false when the queue is empty. It is the single-step
// building block of the sharded kernel's advance loop, which must
// interleave event execution with message delivery at event
// granularity; firing order is identical to Run.
//
//perf:hotpath
func (s *Sim) RunNext() bool {
	s.settle()
	if len(s.events) == 0 {
		return false
	}
	s.fire()
	return true
}

// Reset rewinds the simulator to time zero for reuse: pending events are
// dropped, the clock and fired count restart, and the heap's backing
// array is retained, so trials on one Sim allocate queue space only up
// to the high-water mark of pending events. seq is not rewound; firing
// order depends only on relative seq.
func (s *Sim) Reset() {
	clear(s.events)
	s.events = s.events[:0]
	s.now, s.fired = 0, 0
	s.stopped, s.taken = false, false
}
