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

// BenchmarkSimHold times the classic hold model at each of holdDepths.
func BenchmarkSimHold(b *testing.B) {
	for _, n := range holdDepths {
		b.Run("pending="+strconv.Itoa(n), func(b *testing.B) { benchSimHold(b, n) })
	}
}

// benchSimHold runs the hold model with pending events queued: each op
// fires the earliest one, whose action schedules one replacement an
// exponential delay ahead. The queue is filled and run through once
// before the timer starts, so the heap's backing array has reached its
// final size.
func benchSimHold(b *testing.B, pending int) {
	s := NewSim()
	rng := stats.NewRNG(1)
	var hold Action
	hold = func() { s.Schedule(Time(rng.ExpFloat64()), hold) }
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
	if s.Pending() != pending {
		b.Fatalf("Pending = %d, want %d", s.Pending(), pending)
	}
}

// TestAllocBounds gates the kernel benchmark's allocation figures (see
// benchgate for how a bound is set). The hold model reuses its heap
// slots, so it is held to exactly zero at both depths.
func TestAllocBounds(t *testing.T) {
	benchgate.Check(t, []benchgate.Row{
		{Name: "SimHold", Bench: func(b *testing.B) { benchSimHold(b, 4096) }, MaxBytes: 0, MaxAllocs: 0},
		{Name: "SimHold512", Bench: func(b *testing.B) { benchSimHold(b, 512) }, MaxBytes: 0, MaxAllocs: 0},
	})
}
