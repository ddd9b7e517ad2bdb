package des

import (
	"cmp"
	"math"
	"slices"
	"testing"
)

// FuzzSimOrder drives a Sim and a plain reference model — a slice kept
// sorted by (time, scheduling order) — through the same generated
// operations and requires identical firing order, Pending, Now and
// Fired after every step. Between steps it also checks the heap itself,
// without going through an accessor that would settle a taken root:
// the root is not taken, every parent precedes its children, and no
// slot past the end holds an action. Each input byte pair is one
// operation:
//
//	op%6 0: Schedule   1: ScheduleAt   2: Run(until)   3: RunNext
//	4: Stop   5: Reset
//
// Delays are multiples of 0.25 s, so many events tie. ScheduleAt
// passes -0 for a time of 0 when arg has bit 5 set; the reference model
// takes it as 0. Run's horizon is Now plus arg&7 quarter seconds; with
// bit 6 set it is before Now instead, or NaN with bit 7 set too, and
// Run must panic and change nothing. What a scheduled event does when
// it fires is set by its arg (see newEvent): nothing, schedule up to
// three children, call Stop, or observe — read Pending and PeekNext,
// which must exclude the running event — before or after scheduling
// its children.
func FuzzSimOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 2, 0})                     // three ties at t=0, then Run
	f.Add([]byte{0, 3, 0, 3, 5, 0, 0, 3, 3, 0, 3, 0})         // Reset with events queued, then reuse
	f.Add([]byte{0, 8, 0, 8, 0, 12, 0, 24, 2, 4, 3, 0, 2, 7}) // children and Stop from actions
	f.Add([]byte{0, 2, 4, 0, 2, 1, 0, 1, 3, 0, 3, 0, 2, 7})   // external Stop, RunNext past the horizon
	// 24 events on four times, -0 among the zeros: past 20 queued, pops
	// choose among full four-child groups at depth 2.
	var deep []byte
	for k := 0; k < 24; k++ {
		deep = append(deep, byte(k%2), byte(k/2%4)|0x20)
	}
	f.Add(append(slices.Clip(deep), 2, 7))
	// Four pops one at a time while the queue still fills depth 2, then
	// a Reset at depth and a refilled heap popped the same way.
	f.Add(append(slices.Clip(deep), 3, 0, 3, 0, 3, 0, 3, 0, 2, 7))
	f.Add(append(append(append(slices.Clip(deep), 3, 0, 5, 0), deep...), 3, 0, 3, 0, 3, 0, 3, 0, 2, 7))
	// 88 events on mixed delays and both schedule calls: the first
	// pops pass full four-child groups at depth 3.
	var deeper []byte
	for k := 0; k < 88; k++ {
		deeper = append(deeper, byte(k%3%2), byte(k*7%4)|byte(k%5/4)<<5)
	}
	f.Add(append(slices.Clip(deeper), 3, 0, 3, 0, 3, 0, 3, 0, 3, 0, 2, 7))
	// Actions scheduling no, two and three children (the settle and
	// append paths beside the fused one), one of each after a queue of
	// ties so the fused child sifts down past them.
	f.Add(append(slices.Clip(deep), 0, 0xc8, 0, 0x48, 0, 0x88, 0, 0x18, 2, 7))
	// Observing actions: Pending and PeekNext on a taken root (first
	// Pending, then PeekNext) and after the children took it, with zero
	// to three children.
	f.Add([]byte{0, 2, 0, 0xc4, 0, 0x05, 0, 0x84, 0, 0x14, 0, 0x34, 3, 0, 3, 0, 2, 7})
	f.Add(append(slices.Clip(deep), 0, 0x04, 0, 0x25, 0, 0x54, 0, 0x34, 0, 0xb5, 2, 7, 3, 0))
	// Run to a past horizon and to NaN, each from a clock past zero.
	f.Add([]byte{0, 3, 2, 2, 2, 0x41, 0, 1, 2, 0xc0, 3, 0, 2, 0x47, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := &orderHarness{sim: NewSim()}
		for i := 0; i+1 < len(data) && i < 1024; i += 2 {
			h.step(t, data[i], data[i+1])
		}
	})
}

// spec says what an event does when it fires:
//
//	kind 0: nothing
//	kind 1: observe, then schedule its children at once; with
//	        observeLast, the other way round. Observing reads Pending
//	        then PeekNext, or the other way round with peekFirst.
//	kind 2: schedule its children childDelay ahead
//	kind 3: call Stop
type spec struct {
	kind        byte
	children    []int // ids of the events it schedules, in order
	childDelay  Time
	observeLast bool
	peekFirst   bool
}

// note is one line of a firing log: an event's id when it fires, or,
// with id -1, what an observing action read.
type note struct {
	id      int
	pending int
	next    Time
	ok      bool
}

type refEvent struct {
	at  Time
	seq uint64
	id  int
}

// refSim is the reference model: the pending set is a slice sorted by
// (at, seq), and every rule of Run, RunNext, Stop and Reset is
// restated from the Sim's documentation.
type refSim struct {
	now     Time
	pending []refEvent
	seq     uint64
	fired   uint64
	stopped bool
	log     []note
}

func (r *refSim) schedule(at Time, id int) {
	r.seq++
	r.pending = append(r.pending, refEvent{at: at, seq: r.seq, id: id})
	slices.SortFunc(r.pending, func(a, b refEvent) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
}

// observe logs what Pending and PeekNext should read: the events still
// queued, never the one running.
func (r *refSim) observe() {
	n := note{id: -1, pending: len(r.pending)}
	if n.ok = len(r.pending) > 0; n.ok {
		n.next = r.pending[0].at
	}
	r.log = append(r.log, n)
}

func (r *refSim) fireNext(specs []spec) {
	e := r.pending[0]
	r.pending = r.pending[1:]
	r.now = e.at
	r.fired++
	r.log = append(r.log, note{id: e.id})
	switch sp := specs[e.id]; sp.kind {
	case 1:
		if !sp.observeLast {
			r.observe()
		}
		for _, c := range sp.children {
			r.schedule(r.now, c)
		}
		if sp.observeLast {
			r.observe()
		}
	case 2:
		for _, c := range sp.children {
			r.schedule(r.now+sp.childDelay, c)
		}
	case 3:
		r.stopped = true
	}
}

func (r *refSim) run(until Time, specs []spec) Time {
	r.stopped = false
	for len(r.pending) > 0 && !r.stopped {
		if r.pending[0].at > until {
			r.now = until
			return r.now
		}
		r.fireNext(specs)
	}
	if r.now < until && len(r.pending) == 0 {
		r.now = until
	}
	return r.now
}

type orderHarness struct {
	sim   *Sim
	ref   refSim
	specs []spec
	log   []note
	fires int
}

// maxFires bounds the events one input can fire: each of its at most
// 512 operations registers at most four events, and each event fires
// once. A kernel that fires an event twice fails here, not by growing
// the log until the process runs out of memory.
const maxFires = 4 * 512

// newEvent registers an event described by arg, and its children,
// and returns its id. Bits 2-3 are its kind; kinds 1 and 2 get
// (1 + arg>>6) mod 4 children, which do nothing when they fire. Bit 4
// sets a kind 2 event's childDelay to 0.25 s. For kind 1, bit 5 sets
// observeLast and bit 0 peekFirst.
func (h *orderHarness) newEvent(arg byte) int {
	id := len(h.specs)
	sp := spec{kind: arg >> 2 & 3, childDelay: Time(arg>>4&1) * 0.25,
		observeLast: arg&0x20 != 0, peekFirst: arg&1 != 0}
	if sp.kind == 1 || sp.kind == 2 {
		for c := 0; c < int(1+arg>>6)%4; c++ {
			sp.children = append(sp.children, id+1+c)
		}
	}
	h.specs = append(h.specs, sp)
	for range sp.children {
		h.specs = append(h.specs, spec{})
	}
	return id
}

// observe logs what Pending and PeekNext read from inside an action.
func (h *orderHarness) observe(peekFirst bool) {
	n := note{id: -1}
	if peekFirst {
		n.next, n.ok = h.sim.PeekNext()
		n.pending = h.sim.Pending()
	} else {
		n.pending = h.sim.Pending()
		n.next, n.ok = h.sim.PeekNext()
	}
	h.log = append(h.log, n)
}

func (h *orderHarness) action(id int) Action {
	return func() {
		if h.fires++; h.fires > maxFires {
			panic("des: more events fired than the input registered")
		}
		h.log = append(h.log, note{id: id})
		switch sp := h.specs[id]; sp.kind {
		case 1:
			if !sp.observeLast {
				h.observe(sp.peekFirst)
			}
			for _, c := range sp.children {
				h.sim.Schedule(0, h.action(c))
			}
			if sp.observeLast {
				h.observe(sp.peekFirst)
			}
		case 2:
			for _, c := range sp.children {
				h.sim.Schedule(sp.childDelay, h.action(c))
			}
		case 3:
			h.sim.Stop()
		}
	}
}

// runRejected requires Run(until) to panic.
func runRejected(t *testing.T, s *Sim, until Time) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("Run(%v) at now %v did not panic", until, s.Now())
		}
	}()
	s.Run(until)
}

// checkHeap reads the Sim's fields directly, so a root left taken
// between steps is reported rather than settled by the accessor.
func checkHeap(t *testing.T, s *Sim) {
	t.Helper()
	if s.taken {
		t.Fatal("the root is still taken after the step")
	}
	q := s.events
	for i := 1; i < len(q); i++ {
		if p := (i - 1) / 4; !q[p].before(&q[i]) {
			t.Fatalf("heap order broken: slot %d (%v/%d) before its parent %d (%v/%d)",
				i, q[i].at, q[i].seq, p, q[p].at, q[p].seq)
		}
	}
	for i, e := range q[len(q):cap(q)] {
		if e.act != nil {
			t.Fatalf("slot %d past the end of the heap still holds an action", len(q)+i)
		}
	}
}

func (h *orderHarness) step(t *testing.T, op, arg byte) {
	t.Helper()
	delay := Time(arg&3) * 0.25
	switch op % 6 {
	case 0:
		id := h.newEvent(arg)
		h.sim.Schedule(delay, h.action(id))
		h.ref.schedule(h.ref.now+delay, id)
	case 1:
		id := h.newEvent(arg)
		at := h.sim.Now() + delay
		h.ref.schedule(at, id)
		if at == 0 && arg&0x20 != 0 {
			at = Time(math.Copysign(0, -1))
		}
		h.sim.ScheduleAt(at, h.action(id))
	case 2:
		until := h.sim.Now() + Time(arg&7)*0.25
		if arg&0x40 != 0 {
			until = h.sim.Now() - Time(arg&7+1)*0.25
			if arg&0x80 != 0 {
				until = Time(math.NaN())
			}
			runRejected(t, h.sim, until)
			break
		}
		got, want := h.sim.Run(until), h.ref.run(until, h.specs)
		if got != want {
			t.Fatalf("Run(%v) = %v, reference %v", until, got, want)
		}
	case 3:
		got, want := h.sim.RunNext(), len(h.ref.pending) > 0
		if want {
			h.ref.fireNext(h.specs)
		}
		if got != want {
			t.Fatalf("RunNext = %v, reference %v", got, want)
		}
	case 4:
		h.sim.Stop()
		h.ref.stopped = true
	case 5:
		h.sim.Reset()
		h.ref.now, h.ref.pending, h.ref.fired, h.ref.stopped = 0, nil, 0, false
	}
	checkHeap(t, h.sim)
	if !slices.Equal(h.log, h.ref.log) {
		t.Fatalf("after op %d: firing log %v, reference %v", op%6, h.log, h.ref.log)
	}
	if h.sim.Pending() != len(h.ref.pending) || h.sim.Now() != h.ref.now || h.sim.Fired() != h.ref.fired {
		t.Fatalf("after op %d: Pending/Now/Fired = %d/%v/%d, reference %d/%v/%d", op%6,
			h.sim.Pending(), h.sim.Now(), h.sim.Fired(), len(h.ref.pending), h.ref.now, h.ref.fired)
	}
}
