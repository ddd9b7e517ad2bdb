package memblade

import (
	"testing"

	"warehousesim/internal/benchgate"
	"warehousesim/internal/obs"
	"warehousesim/internal/obs/span"
	"warehousesim/internal/stats"
)

// benchAccess times one Zipf-distributed page access (every fifth a
// write) on a 1 Mi-page footprint with a quarter of it local. The
// local memory is filled before the timer starts, so the figures are
// the steady state's at any b.N rather than a cold fill amortized over
// however many accesses the harness picked.
func benchAccess(b *testing.B, traced bool) {
	sim, err := New(Config{FootprintPages: 1 << 20, LocalFraction: 0.25, Policy: LRU, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if traced {
		// The row gates the blade's instrumented path into a real sink:
		// the sink's row store grows in amortised lumps, so the steady
		// state averages well under one allocation per access.
		rec := obs.NewSink()
		sim.Instrument(rec, 1024)
		sim.InstrumentSpans(span.NewTracer(rec, 64))
	}
	r := stats.NewRNG(2)
	z, err := stats.NewZipf(1<<20, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; sim.stats.Misses < int64(sim.Capacity()); i++ {
		sim.Access(int64(z.Rank(r)), i%5 == 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Access(int64(z.Rank(r)), i%5 == 0)
	}
}

func BenchmarkMembladeAccess(b *testing.B)       { benchAccess(b, false) }
func BenchmarkMembladeAccessTraced(b *testing.B) { benchAccess(b, true) }

// TestAllocBounds gates the access benchmarks' allocation figures (see
// benchgate for how a bound is set).
func TestAllocBounds(t *testing.T) {
	benchgate.Check(t, []benchgate.Row{
		{Name: "MembladeAccess", Bench: BenchmarkMembladeAccess, MaxBytes: 47, MaxAllocs: 1},
		{Name: "MembladeAccessTraced", Bench: BenchmarkMembladeAccessTraced, MaxBytes: 47, MaxAllocs: 1},
	})
}
