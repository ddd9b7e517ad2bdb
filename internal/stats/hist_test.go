package stats

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"warehousesim/internal/bucket"
)

func TestHistogramQuantileAgainstExact(t *testing.T) {
	h := NewLatencyHistogram()
	r := NewRNG(1)
	samples := make([]float64, 0, 50000)
	for i := 0; i < 50000; i++ {
		// Latency-like mixture: mostly ~10ms, a slow tail.
		v := 0.01 * (0.5 + r.ExpFloat64())
		if r.Bool(0.05) {
			v += 0.2 * r.ExpFloat64()
		}
		h.Add(v)
		samples = append(samples, v)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		exact := percentile(samples, q*100)
		got := h.Quantile(q)
		if math.Abs(got-exact)/exact > 0.08 {
			t.Errorf("q%g: hist=%g exact=%g (err %.1f%%)", q, got, exact,
				100*math.Abs(got-exact)/exact)
		}
	}
}

func TestHistogramMeanAndCount(t *testing.T) {
	h := NewLatencyHistogram()
	for _, v := range []float64{0.1, 0.2, 0.3} {
		h.Add(v)
	}
	if h.Count() != 3 {
		t.Errorf("count = %d", h.Count())
	}
	if m := h.Mean(); math.Abs(m-0.2) > 1e-12 {
		t.Errorf("mean = %g", m)
	}
	if h.maxSeen != 0.3 {
		t.Errorf("max = %g", h.maxSeen)
	}
}

func TestHistogramUnderflow(t *testing.T) {
	h := NewLatencyHistogram()
	h.Add(5e-6) // below the 10 µs floor
	h.Add(1e-6)
	h.Add(0.002)
	if h.Count() != 3 || h.under != 2 {
		t.Errorf("count = %d, underflow %d; want 3 and 2", h.Count(), h.under)
	}
	if q := h.Quantile(0.5); q >= latMin {
		t.Errorf("low quantile should fall in underflow region, got %g", q)
	}
}

func TestHistogramOverflowClamped(t *testing.T) {
	h := NewLatencyHistogram() // top bucket starts near 2,850 s
	h.Add(1e9)
	if h.buckets[latBuckets-1] != 1 {
		t.Fatal("1e9 s did not land in the top bucket")
	}
	if q := h.Quantile(1); q > 1e9 {
		t.Errorf("quantile exceeded max seen: %g", q)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewLatencyHistogram()
	h.Add(0.5)
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 || h.maxSeen != 0 {
		t.Error("reset did not clear state")
	}
	if q := h.Quantile(0.95); q != 0 {
		t.Errorf("quantile of empty = %g", q)
	}
}

// Property: quantiles are monotone in q.
func TestQuickHistogramQuantileMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		h := NewLatencyHistogram()
		n := 10 + r.Intn(500)
		for i := 0; i < n; i++ {
			h.Add(0.001 + r.ExpFloat64()*0.05)
		}
		prev := -1.0
		for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// refBucketOf is the latency layout's logarithm formula, the
// per-observation bucket lookup its table replaced. It is a reference
// where x/latMin is finite: beyond that its int conversion of +Inf is
// implementation-defined.
func refBucketOf(x float64) int {
	if x < latMin {
		return -1
	}
	b := int(math.Log(x/latMin) / math.Log(latGrowth))
	if b >= latBuckets {
		b = latBuckets - 1
	}
	return b
}

// checkBucketOf holds bucketOf to the reference at x: values whose
// ratio to latMin overflows land in the top bucket, NaN in underflow.
func checkBucketOf(t *testing.T, x float64) {
	t.Helper()
	var want int
	switch {
	case math.IsNaN(x):
		want = -1
	case math.IsInf(x/latMin, 1):
		want = latBuckets - 1
	default:
		want = refBucketOf(x)
	}
	if got := bucketOf(x); got != want {
		t.Fatalf("bucketOf(%v) [bits %#x] = %d, want %d", x, math.Float64bits(x), got, want)
	}
}

// TestHistogramBucketExactAtBoundaries sweeps 4096 ulps either side of
// every bucket boundary of the latency layout, and checks each value
// lands where the logarithm puts it, and that each sweep crosses its
// boundary.
func TestHistogramBucketExactAtBoundaries(t *testing.T) {
	const ulps = 4096
	NewLatencyHistogram() // builds the table bucketOf reads
	for i := 1; i < latBuckets; i++ {
		b := math.Float64bits(bucketLow(i))
		lo, hi := math.Float64frombits(b-ulps), math.Float64frombits(b+ulps)
		if refBucketOf(lo) != i-1 || refBucketOf(hi) != i {
			t.Fatalf("sweep [%v, %v] misses the boundary of bucket %d", lo, hi, i)
		}
		for x := b - ulps; x <= b+ulps; x++ {
			checkBucketOf(t, math.Float64frombits(x))
		}
	}
}

var histogramEdges = []float64{
	math.Inf(-1), -1, 0, math.SmallestNonzeroFloat64, 5e-6, 10e-6, math.Nextafter(10e-6, 0),
	math.Nextafter(10e-6, 1), 1e4, 1e303, 1.7e303, 1.8e303, 1e305, math.MaxFloat64, math.Inf(1), math.NaN(),
}

// TestHistogramHugeValuesClampToTop: values whose ratio to latMin
// overflows, +Inf included, count in the top bucket, not underflow;
// NaN counts in underflow.
func TestHistogramHugeValuesClampToTop(t *testing.T) {
	h := NewLatencyHistogram()
	top := latBuckets - 1
	for _, x := range []float64{1e305, math.MaxFloat64, math.Inf(1)} {
		h.Add(x)
	}
	if h.buckets[top] != 3 || h.under != 0 {
		t.Fatalf("top bucket %d, underflow %d after three huge values; want 3 and 0", h.buckets[top], h.under)
	}
	h.Add(math.NaN())
	if h.under != 1 || h.count != 4 {
		t.Fatalf("NaN: underflow %d, count %d; want 1 and 4", h.under, h.count)
	}
	for _, x := range histogramEdges {
		checkBucketOf(t, x)
	}
}

// FuzzHistogramBucket holds the latency layout's bucketOf to the
// logarithm over arbitrary float64 bit patterns.
func FuzzHistogramBucket(f *testing.F) {
	NewLatencyHistogram() // builds the table bucketOf reads
	for _, x := range histogramEdges {
		f.Add(math.Float64bits(x))
	}
	for i := 1; i < latBuckets; i += 23 {
		b := math.Float64bits(bucketLow(i))
		f.Add(b - 1)
		f.Add(b)
		f.Add(b + 1)
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkBucketOf(t, math.Float64frombits(bits))
	})
}

// TestHistogramLayoutTableShared: the latency table is built once even
// when several goroutines make the first histograms at once, and every
// histogram records through it. The test forgets the table first, so
// the first use is really concurrent; under -race a racy build fails.
func TestHistogramLayoutTableShared(t *testing.T) {
	latencyOnce, latencyTable = sync.Once{}, nil
	const workers = 4
	seen := make([]*bucket.Table, workers)
	hs := make([]*Histogram, workers)
	var wg sync.WaitGroup
	for i := range hs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hs[i] = NewLatencyHistogram()
			seen[i] = latencyTable
			hs[i].Add(0.01)
		}()
	}
	wg.Wait()
	for i, tab := range seen {
		if tab == nil || tab != seen[0] {
			t.Fatalf("worker %d saw table %p, worker 0 %p; want one shared table", i, tab, seen[0])
		}
		if got := hs[i].buckets[refBucketOf(0.01)]; got != 1 {
			t.Fatalf("worker %d: 0.01 s counted %d times in its bucket, want 1", i, got)
		}
	}
}
