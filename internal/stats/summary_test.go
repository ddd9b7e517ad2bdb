package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.Count() != 8 {
		t.Errorf("count = %d", s.Count())
	}
	if m := s.Mean(); math.Abs(m-5) > 1e-12 {
		t.Errorf("mean = %g", m)
	}
	// Sample variance of that classic set is 32/7.
	if v := s.Var(); math.Abs(v-32.0/7) > 1e-9 {
		t.Errorf("var = %g, want %g", v, 32.0/7)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %g/%g", s.Min(), s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.Count() != 0 {
		t.Error("empty summary not zeroed")
	}
}

func TestSummaryMerge(t *testing.T) {
	r := NewRNG(42)
	var all, a, b Summary
	for i := 0; i < 10000; i++ {
		x := r.NormFloat64()*3 + 1
		all.Add(x)
		if i%2 == 0 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.Count() != all.Count() {
		t.Fatalf("merged count %d != %d", a.Count(), all.Count())
	}
	if math.Abs(a.Mean()-all.Mean()) > 1e-9 {
		t.Errorf("merged mean %g != %g", a.Mean(), all.Mean())
	}
	if math.Abs(a.Var()-all.Var())/all.Var() > 1e-9 {
		t.Errorf("merged var %g != %g", a.Var(), all.Var())
	}
	if a.Min() != all.Min() || a.Max() != all.Max() {
		t.Errorf("merged min/max mismatch")
	}
}

func TestSummaryMergeEmptyCases(t *testing.T) {
	var empty, full Summary
	full.Add(3)
	full.Add(5)
	snapshot := full
	full.Merge(empty)
	if full != snapshot {
		t.Error("merging empty changed summary")
	}
	empty.Merge(full)
	if empty != full {
		t.Error("merging into empty did not copy")
	}
}

func TestHarmonicMean(t *testing.T) {
	if hm, ok := HarmonicMeanOK([]float64{1, 1, 1}); !ok || math.Abs(hm-1) > 1e-12 {
		t.Errorf("hmean(1,1,1) = %g, %v", hm, ok)
	}
	if hm, ok := HarmonicMeanOK([]float64{2, 6}); !ok || math.Abs(hm-3) > 1e-12 {
		t.Errorf("hmean(2,6) = %g, %v; want 3", hm, ok)
	}
	if _, ok := HarmonicMeanOK(nil); ok {
		t.Error("HarmonicMeanOK accepted empty input")
	}
	for _, bad := range [][]float64{{1, 0}, {1, -2}, {1, math.NaN()}, {1, math.Inf(1)}} {
		if hm, ok := HarmonicMeanOK(bad); ok {
			t.Errorf("HarmonicMeanOK(%v) = %g, want rejection", bad, hm)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if p := percentile(xs, 0); p != 1 {
		t.Errorf("p0 = %g", p)
	}
	if p := percentile(xs, 100); p != 5 {
		t.Errorf("p100 = %g", p)
	}
	if p := percentile(xs, 50); p != 3 {
		t.Errorf("p50 = %g", p)
	}
	if p := percentile(xs, 75); p != 4 {
		t.Errorf("p75 = %g", p)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("empty percentile not NaN")
	}
	// Input must not be mutated.
	if !sort.Float64sAreSorted([]float64{5, 1, 4, 2, 3}[0:0]) { // trivially true; real check below
		t.Fatal("unreachable")
	}
	orig := []float64{9, 1, 5}
	percentile(orig, 50)
	if orig[0] != 9 || orig[1] != 1 || orig[2] != 5 {
		t.Error("percentile mutated its input")
	}
}

// Property: harmonic mean is never above the arithmetic mean for positive
// inputs (AM-HM inequality).
func TestQuickHarmonicLEArithmetic(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 1 + r.Intn(16)
		xs := make([]float64, n)
		sum := 0.0
		for i := range xs {
			xs[i] = 0.01 + 100*r.Float64()
			sum += xs[i]
		}
		am := sum / float64(n)
		hm, ok := HarmonicMeanOK(xs)
		return ok && hm <= am*(1+1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Welford summary matches the naive two-pass computation.
func TestQuickSummaryMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		n := 2 + r.Intn(100)
		xs := make([]float64, n)
		var s Summary
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
			s.Add(xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(n)
		v := 0.0
		for _, x := range xs {
			v += (x - mean) * (x - mean)
		}
		v /= float64(n - 1)
		return math.Abs(s.Mean()-mean) < 1e-9 && math.Abs(s.Var()-v) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// percentile is the sort-based reference the histogram and
// distribution tests check quantiles against: the p-th percentile
// (0 <= p <= 100) of xs by linear interpolation between closest ranks.
// xs need not be sorted; the function copies and sorts. It returns NaN
// for empty input.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	p = math.Max(0, math.Min(100, p))
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := p / 100 * float64(len(sorted)-1)
	lo, hi := int(math.Floor(rank)), int(math.Ceil(rank))
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
