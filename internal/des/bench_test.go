package des

import (
	"strconv"
	"testing"

	"warehousesim/internal/benchgate"
	"warehousesim/internal/stats"
)

// holdDepths are the queue depths BenchmarkSimHold runs at. Two whperf
// search ops pop 5.7 M events from heaps whose mean depth is 170 and
// whose deepest is 512; 4,096 is the bound the 4,096-client cap puts
// on a flat run, one event in flight per client.
var holdDepths = []int{512, 4096}

// BenchmarkSimHold times the classic hold model at each of holdDepths,
// where every action schedules one event into its own root slot, and
// at 512 pending a variant whose actions alternately schedule none and
// two, which times the pop of a root no action took and the append of
// a second event.
func BenchmarkSimHold(b *testing.B) {
	for _, n := range holdDepths {
		b.Run("pending="+strconv.Itoa(n), func(b *testing.B) { benchSimHold(b, n, false) })
	}
	b.Run("alternating/pending=512", func(b *testing.B) { benchSimHold(b, 512, true) })
}

// benchSimHold runs the hold model with pending events queued: each op
// fires the earliest one, whose action schedules one replacement an
// exponential delay ahead or, alternating, none and then two. The queue
// is filled and run through once before the timer starts, so the
// heap's backing array has reached its final size.
func benchSimHold(b *testing.B, pending int, alternating bool) {
	s := NewSim()
	rng := stats.NewRNG(1)
	var hold Action
	if alternating {
		two := false
		hold = func() {
			if two = !two; two {
				s.Schedule(Time(rng.ExpFloat64()), hold)
				s.Schedule(Time(rng.ExpFloat64()), hold)
			}
		}
	} else {
		hold = func() { s.Schedule(Time(rng.ExpFloat64()), hold) }
	}
	for i := 0; i < pending; i++ {
		s.Schedule(Time(rng.ExpFloat64()), hold)
	}
	for i := 0; i < pending; i++ {
		s.RunNext()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunNext()
	}
	want := pending
	if alternating {
		want += (pending + b.N) % 2 // one more after an odd number of fires
	}
	if s.Pending() != want {
		b.Fatalf("Pending = %d, want %d", s.Pending(), want)
	}
}

// TestAllocBounds gates the kernel benchmark's allocation figures (see
// benchgate for how a bound is set). The hold model reuses its heap
// slots, so it is held to exactly zero at both depths and alternating.
func TestAllocBounds(t *testing.T) {
	benchgate.Check(t, []benchgate.Row{
		{Name: "SimHold", Bench: func(b *testing.B) { benchSimHold(b, 4096, false) }, MaxBytes: 0, MaxAllocs: 0},
		{Name: "SimHold512", Bench: func(b *testing.B) { benchSimHold(b, 512, false) }, MaxBytes: 0, MaxAllocs: 0},
		{Name: "SimHoldAlternating", Bench: func(b *testing.B) { benchSimHold(b, 512, true) }, MaxBytes: 0, MaxAllocs: 0},
	})
}
