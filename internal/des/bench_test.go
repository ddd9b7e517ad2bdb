package des

import (
	"testing"

	"warehousesim/internal/benchgate"
	"warehousesim/internal/stats"
)

// holdPending is the queue depth of BenchmarkSimHold: the flat search
// ramps to 4096 closed-loop clients, each with one event in flight.
const holdPending = 4096

// BenchmarkSimHold times the classic hold model at a realistic queue
// depth: with holdPending events queued, each op fires the earliest one,
// whose action schedules one replacement an exponential delay ahead.
// The queue is filled and run through once before the timer starts, so
// the heap's backing array has reached its final size.
func BenchmarkSimHold(b *testing.B) {
	s := NewSim()
	rng := stats.NewRNG(1)
	var hold Action
	hold = func() { s.Schedule(Time(rng.ExpFloat64()), hold) }
	for i := 0; i < holdPending; i++ {
		s.Schedule(Time(rng.ExpFloat64()), hold)
	}
	for i := 0; i < holdPending; i++ {
		s.RunNext()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunNext()
	}
	if s.Pending() != holdPending {
		b.Fatalf("Pending = %d, want %d", s.Pending(), holdPending)
	}
}

// TestAllocBounds gates the kernel benchmark's allocation figures (see
// benchgate for how a bound is set). The hold model reuses its heap
// slots, so it is held to exactly zero.
func TestAllocBounds(t *testing.T) {
	benchgate.Check(t, []benchgate.Row{
		{Name: "SimHold", Bench: BenchmarkSimHold, MaxBytes: 0, MaxAllocs: 0},
	})
}
