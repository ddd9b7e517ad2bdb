package stats

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestHistogramPanicsOnBadSpec(t *testing.T) {
	for _, tc := range []struct {
		min, growth float64
		n           int
	}{{0, 1.1, 10}, {1, 1.0, 10}, {1, 1.1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for min=%g growth=%g n=%d", tc.min, tc.growth, tc.n)
				}
			}()
			NewHistogram(tc.min, tc.growth, tc.n)
		}()
	}
}

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
	h := NewHistogram(1, 2, 8)
	h.Add(0.5) // below min
	h.Add(2)
	if h.Count() != 2 {
		t.Errorf("count = %d", h.Count())
	}
	if q := h.Quantile(0.25); q >= 1 {
		t.Errorf("low quantile should fall in underflow region, got %g", q)
	}
}

func TestHistogramOverflowClamped(t *testing.T) {
	h := NewHistogram(1, 2, 4) // top bucket starts at 8
	h.Add(1e9)
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

// refBucketOf is the layout's logarithm formula, the per-observation
// bucket lookup the layout's table replaced. It is a reference where
// x/min is finite: beyond that its int conversion of +Inf is
// implementation-defined.
func refBucketOf(h *Histogram, x float64) int {
	if x < h.min {
		return -1
	}
	b := int(math.Log(x/h.min) / math.Log(h.growth))
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	return b
}

// checkBucketOf holds h.bucketOf to the reference at x: values whose
// ratio to min overflows land in the top bucket, NaN in underflow.
func checkBucketOf(t *testing.T, h *Histogram, x float64) {
	t.Helper()
	var want int
	switch {
	case math.IsNaN(x):
		want = -1
	case math.IsInf(x/h.min, 1):
		want = len(h.buckets) - 1
	default:
		want = refBucketOf(h, x)
	}
	if got := h.bucketOf(x); got != want {
		t.Fatalf("layout (%g, %g, %d): bucketOf(%v) [bits %#x] = %d, want %d",
			h.min, h.growth, len(h.buckets), x, math.Float64bits(x), got, want)
	}
}

// TestHistogramBucketExactAtBoundaries sweeps 4096 ulps either side of
// every bucket boundary of the latency layout and two others, and
// checks each value lands where the logarithm puts it, and that each
// sweep crosses its boundary.
func TestHistogramBucketExactAtBoundaries(t *testing.T) {
	const ulps = 4096
	for _, h := range []*Histogram{NewLatencyHistogram(), NewHistogram(1, 2, 8), NewHistogram(1e-3, 1.5, 50)} {
		for i := 1; i < len(h.buckets); i++ {
			b := math.Float64bits(h.min * math.Pow(h.growth, float64(i)))
			lo, hi := math.Float64frombits(b-ulps), math.Float64frombits(b+ulps)
			if refBucketOf(h, lo) != i-1 || refBucketOf(h, hi) != i {
				t.Fatalf("sweep [%v, %v] misses the boundary of bucket %d", lo, hi, i)
			}
			for x := b - ulps; x <= b+ulps; x++ {
				checkBucketOf(t, h, math.Float64frombits(x))
			}
		}
	}
}

var histogramEdges = []float64{
	math.Inf(-1), -1, 0, math.SmallestNonzeroFloat64, 5e-6, 10e-6, math.Nextafter(10e-6, 0),
	math.Nextafter(10e-6, 1), 1e4, 1e303, 1.7e303, 1.8e303, 1e305, math.MaxFloat64, math.Inf(1), math.NaN(),
}

// TestHistogramHugeValuesClampToTop: values whose ratio to min
// overflows, +Inf included, count in the top bucket, not underflow;
// NaN counts in underflow.
func TestHistogramHugeValuesClampToTop(t *testing.T) {
	h := NewLatencyHistogram()
	top := len(h.buckets) - 1
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
		checkBucketOf(t, h, x)
	}
}

// FuzzHistogramBucket holds the latency layout's bucketOf to the
// logarithm over arbitrary float64 bit patterns.
func FuzzHistogramBucket(f *testing.F) {
	h := NewLatencyHistogram()
	for _, x := range histogramEdges {
		f.Add(math.Float64bits(x))
	}
	for i := 1; i < len(h.buckets); i += 23 {
		b := math.Float64bits(h.min * math.Pow(h.growth, float64(i)))
		f.Add(b - 1)
		f.Add(b)
		f.Add(b + 1)
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkBucketOf(t, h, math.Float64frombits(bits))
	})
}

// TestHistogramLayoutTableShared: histograms of one layout share one
// table, built once even when the layout is first used on several
// goroutines at once.
func TestHistogramLayoutTableShared(t *testing.T) {
	const workers = 4
	hs := make([]*Histogram, workers)
	var wg sync.WaitGroup
	for i := range hs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hs[i] = NewHistogram(3e-4, 1.25, 60)
		}()
	}
	wg.Wait()
	for _, h := range hs[1:] {
		if h.table != hs[0].table {
			t.Fatal("two histograms of one layout hold different tables")
		}
	}
	if NewLatencyHistogram().table != NewLatencyHistogram().table {
		t.Fatal("two latency histograms hold different tables")
	}
}
