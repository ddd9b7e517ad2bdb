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
// Fired after every step. Each input byte pair is one operation:
//
//	op%8 0: Schedule   1: ScheduleAt   2, 7: Cancel (any handle ever
//	issued: live, cancelled, fired, or from before a Reset)
//	3: Run(until)   4: RunNext   5: Stop   6: Reset
//
// Delays are multiples of 0.25 s, so many events tie. ScheduleAt
// passes -0 for a time of 0 when arg has bit 5 set; the reference model
// takes it as 0. A scheduled event may, when it fires, schedule one
// child (often at the same instant) or call Stop.
func FuzzSimOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 3, 0})                         // three ties at t=0, then Run
	f.Add([]byte{0, 1, 0, 2, 2, 0, 2, 0, 3, 7, 2, 1})             // cancel, double cancel, stale after firing
	f.Add([]byte{0, 3, 0, 3, 6, 0, 0, 3, 2, 0, 2, 1, 4, 0, 4, 0}) // stale handles across Reset
	f.Add([]byte{0, 8, 0, 8, 0, 12, 0, 24, 3, 4, 4, 0, 3, 7})     // children and Stop from actions
	f.Add([]byte{0, 2, 5, 0, 3, 1, 0, 1, 4, 0, 4, 0, 7, 0, 3, 7}) // external Stop, RunNext past the horizon
	// A cancel whose replacement slot precedes the hole's parent: remove
	// must sift up, not down.
	f.Add([]byte("0808000020200020000800200800002000202008C101090(092109010100010001$02AC0"))
	// 24 events on four times, -0 among the zeros: past 20 queued, pops
	// and cancels choose among full four-child groups at depth 2.
	var deep []byte
	for k := 0; k < 24; k++ {
		deep = append(deep, byte(k%2), byte(k/2%4)|0x20)
	}
	f.Add(append(slices.Clip(deep), 3, 7))
	f.Add(append(slices.Clip(deep), 2, 5, 7, 17, 4, 0, 4, 0, 4, 0, 2, 11, 4, 0, 3, 7))
	f.Fuzz(func(t *testing.T, data []byte) {
		h := &orderHarness{sim: NewSim()}
		for i := 0; i+1 < len(data) && i < 1024; i += 2 {
			h.step(t, data[i], data[i+1])
		}
	})
}

// spec says what an event does when it fires: kind 2 schedules the
// event child after childDelay, kind 3 calls Stop, others do nothing.
type spec struct {
	kind       byte
	child      int
	childDelay Time
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
	log     []int
}

func (r *refSim) schedule(at Time, id int) {
	r.seq++
	r.pending = append(r.pending, refEvent{at: at, seq: r.seq, id: id})
	slices.SortFunc(r.pending, func(a, b refEvent) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
}

func (r *refSim) cancel(id int) {
	r.pending = slices.DeleteFunc(r.pending, func(e refEvent) bool { return e.id == id })
}

func (r *refSim) fireNext(specs []spec) {
	e := r.pending[0]
	r.pending = r.pending[1:]
	r.now = e.at
	r.fired++
	r.log = append(r.log, e.id)
	switch sp := specs[e.id]; sp.kind {
	case 2:
		r.schedule(r.now+sp.childDelay, sp.child)
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
	sim     *Sim
	ref     refSim
	specs   []spec
	handles []EventHandle // by event id; zero until scheduled
	log     []int
}

// newEvent registers an event (and its child, if any) described by
// arg and returns its id.
func (h *orderHarness) newEvent(arg byte) int {
	id := len(h.specs)
	sp := spec{kind: arg >> 2 & 3, childDelay: Time(arg>>4&1) * 0.25}
	h.specs = append(h.specs, sp)
	h.handles = append(h.handles, EventHandle{})
	if sp.kind == 2 {
		h.specs[id].child = len(h.specs)
		h.specs = append(h.specs, spec{})
		h.handles = append(h.handles, EventHandle{})
	}
	return id
}

func (h *orderHarness) action(id int) Action {
	return func() {
		h.log = append(h.log, id)
		switch sp := h.specs[id]; sp.kind {
		case 2:
			h.handles[sp.child] = h.sim.Schedule(sp.childDelay, h.action(sp.child))
		case 3:
			h.sim.Stop()
		}
	}
}

func (h *orderHarness) step(t *testing.T, op, arg byte) {
	t.Helper()
	delay := Time(arg&3) * 0.25
	switch op % 8 {
	case 0:
		id := h.newEvent(arg)
		h.handles[id] = h.sim.Schedule(delay, h.action(id))
		h.ref.schedule(h.ref.now+delay, id)
	case 1:
		id := h.newEvent(arg)
		at := h.sim.Now() + delay
		h.ref.schedule(at, id)
		if at == 0 && arg&0x20 != 0 {
			at = Time(math.Copysign(0, -1))
		}
		h.handles[id] = h.sim.ScheduleAt(at, h.action(id))
	case 2, 7:
		if len(h.handles) == 0 {
			return
		}
		id := int(arg) % len(h.handles)
		h.handles[id].Cancel()
		h.ref.cancel(id)
	case 3:
		until := h.sim.Now() + Time(arg&7)*0.25
		got, want := h.sim.Run(until), h.ref.run(until, h.specs)
		if got != want {
			t.Fatalf("Run(%v) = %v, reference %v", until, got, want)
		}
	case 4:
		got, want := h.sim.RunNext(), len(h.ref.pending) > 0
		if want {
			h.ref.fireNext(h.specs)
		}
		if got != want {
			t.Fatalf("RunNext = %v, reference %v", got, want)
		}
	case 5:
		h.sim.Stop()
		h.ref.stopped = true
	case 6:
		h.sim.Reset()
		h.ref.now, h.ref.pending, h.ref.fired, h.ref.stopped = 0, nil, 0, false
	}
	if !slices.Equal(h.log, h.ref.log) {
		t.Fatalf("after op %d: fired ids %v, reference %v", op%8, h.log, h.ref.log)
	}
	if h.sim.Pending() != len(h.ref.pending) || h.sim.Now() != h.ref.now || h.sim.Fired() != h.ref.fired {
		t.Fatalf("after op %d: Pending/Now/Fired = %d/%v/%d, reference %d/%v/%d", op%8,
			h.sim.Pending(), h.sim.Now(), h.sim.Fired(), len(h.ref.pending), h.ref.now, h.ref.fired)
	}
}
