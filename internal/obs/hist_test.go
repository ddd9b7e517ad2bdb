package obs

import (
	"math"
	"testing"
)

// refHistIndex is the layout's logarithm formula, the per-observation
// bucket lookup histTable replaced. Its int conversion of ±Inf is
// implementation-defined, so it is a reference for finite positive
// values only.
func refHistIndex(v float64) int {
	e := math.Log10(v)
	i := int(math.Floor((e - histMinExp) * histBucketsPerDecade))
	if i < 0 {
		i = 0
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// checkHistIndex holds histIndex to the reference at v, which must be
// positive; +Inf must land in the top bucket.
func checkHistIndex(t *testing.T, v float64) {
	t.Helper()
	want := histBuckets - 1
	if !math.IsInf(v, 1) {
		want = refHistIndex(v)
	}
	if got := histIndex(v); got != want {
		t.Fatalf("histIndex(%v) [bits %#x] = %d, want %d", v, math.Float64bits(v), got, want)
	}
}

// TestHistIndexExactAtBoundaries sweeps 4096 ulps either side of every
// bucket boundary and checks each value lands where the logarithm puts
// it, and that each sweep crosses its boundary.
func TestHistIndexExactAtBoundaries(t *testing.T) {
	const ulps = 4096
	for i := 1; i < histBuckets; i++ {
		b := math.Float64bits(math.Pow(10, histMinExp+float64(i)/histBucketsPerDecade))
		lo, hi := math.Float64frombits(b-ulps), math.Float64frombits(b+ulps)
		if refHistIndex(lo) != i-1 || refHistIndex(hi) != i {
			t.Fatalf("sweep [%v, %v] misses the boundary of bucket %d", lo, hi, i)
		}
		for x := b - ulps; x <= b+ulps; x++ {
			checkHistIndex(t, math.Float64frombits(x))
		}
	}
}

// TestHistIndexClampEdges checks the values outside the layout's
// range: everything positive below it in bucket 0, everything above it
// (+Inf included) in the top bucket.
func TestHistIndexClampEdges(t *testing.T) {
	for _, v := range histIndexEdges {
		checkHistIndex(t, v)
	}
	if got := histIndex(math.Inf(1)); got != histBuckets-1 {
		t.Fatalf("histIndex(+Inf) = %d, want the top bucket %d", got, histBuckets-1)
	}
}

var histIndexEdges = []float64{
	math.SmallestNonzeroFloat64, 1e-300, 1e-13, 1e-12, math.Nextafter(1e-12, 2),
	1e12, math.Nextafter(1e12, 0), 1e13, 1e300, math.MaxFloat64, math.Inf(1),
}

// FuzzHistIndex holds histIndex to the logarithm over arbitrary
// float64 bit patterns; non-positive values and NaN never reach it.
func FuzzHistIndex(f *testing.F) {
	for _, v := range histIndexEdges {
		f.Add(math.Float64bits(v))
	}
	for i := 1; i < histBuckets; i += 7 {
		b := math.Float64bits(math.Pow(10, histMinExp+float64(i)/histBucketsPerDecade))
		f.Add(b - 1)
		f.Add(b)
		f.Add(b + 1)
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		if v := math.Float64frombits(bits); v > 0 {
			checkHistIndex(t, v)
		}
	})
}

// BenchmarkHistAdd times one observation into a sink's histogram
// through its handle, over values spread across the layout and past
// both of its clamp edges.
func BenchmarkHistAdd(b *testing.B) {
	h := NewSink().Hist("latency_sec")
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = math.Pow(10, histMinExp-2+float64(histMaxExp-histMinExp+4)*float64(i)/float64(len(vals)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(vals[i%len(vals)])
	}
}
