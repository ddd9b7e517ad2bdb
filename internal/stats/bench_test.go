package stats

import (
	"testing"

	"warehousesim/internal/benchgate"
)

// BenchmarkZipfRank times one rank draw from a 1 Mi-rank Zipf(1.0).
// The 8 MB CDF table is built before the timer starts.
func BenchmarkZipfRank(b *testing.B) {
	z, err := NewZipf(1<<20, 1.0)
	if err != nil {
		b.Fatal(err)
	}
	r := NewRNG(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Rank(r)
	}
}

// TestAllocBounds gates the sampler benchmark's allocation figures (see
// benchgate for how a bound is set).
func TestAllocBounds(t *testing.T) {
	benchgate.Check(t, []benchgate.Row{
		{Name: "ZipfRank", Bench: BenchmarkZipfRank, MaxBytes: 32, MaxAllocs: 1},
	})
}
