package flashcache

import (
	"testing"

	"warehousesim/internal/benchgate"
	"warehousesim/internal/stats"
)

// BenchmarkFlashCacheOp times one uniform random block operation (every
// tenth a write) on the default 1 GB cache. The block table is filled
// before the timer starts, so the figures are the steady state's at any
// b.N rather than the table's growth amortized over the run.
func BenchmarkFlashCacheOp(b *testing.B) {
	sim, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	r := stats.NewRNG(3)
	op := func(i int) {
		block := r.Int63n(1 << 22)
		if i%10 == 0 {
			sim.Write(block)
		} else {
			sim.Read(block)
		}
	}
	for i := 0; sim.blocks.Len() < sim.blocks.Cap(); i++ {
		op(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

// TestAllocBounds gates the cache benchmark's allocation figures (see
// benchgate for how a bound is set).
func TestAllocBounds(t *testing.T) {
	benchgate.Check(t, []benchgate.Row{
		{Name: "FlashCacheOp", Bench: BenchmarkFlashCacheOp, MaxBytes: 32, MaxAllocs: 1},
	})
}
