package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestZipfErrors(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewZipf(10, 0); err == nil {
		t.Error("s=0 accepted")
	}
	if _, err := NewZipf(10, math.NaN()); err == nil {
		t.Error("s=NaN accepted")
	}
}

func TestZipfRankInRange(t *testing.T) {
	z, err := NewZipf(100, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(1)
	for i := 0; i < 100000; i++ {
		k := z.Rank(r)
		if k < 0 || k >= 100 {
			t.Fatalf("rank %d out of [0,100)", k)
		}
	}
}

func TestZipfMonotoneFrequencies(t *testing.T) {
	z, err := NewZipf(50, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(2)
	counts := make([]int, 50)
	for i := 0; i < 500000; i++ {
		counts[z.Rank(r)]++
	}
	// Top ranks must clearly dominate; compare decade aggregates to
	// tolerate sampling noise.
	first10, last10 := 0, 0
	for i := 0; i < 10; i++ {
		first10 += counts[i]
		last10 += counts[40+i]
	}
	if first10 < 5*last10 {
		t.Errorf("zipf not skewed: first decade %d vs last decade %d", first10, last10)
	}
}

func TestZipfMatchesTheory(t *testing.T) {
	z, err := NewZipf(20, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(3)
	const n = 1000000
	counts := make([]int, 20)
	for i := 0; i < n; i++ {
		counts[z.Rank(r)]++
	}
	for k := 0; k < 20; k++ {
		want := z.prob(k)
		got := float64(counts[k]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("rank %d freq %g, want %g", k, got, want)
		}
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	z, err := NewZipf(1000, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for k := 0; k < 1000; k++ {
		sum += z.prob(k)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("probabilities sum to %g", sum)
	}
}

func TestZipfApproximateLargeN(t *testing.T) {
	// Force the approximate path with a very large N.
	z, err := NewZipf(cdfLimit*4, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(4)
	var s Summary
	for i := 0; i < 100000; i++ {
		k := z.Rank(r)
		if k < 0 || k >= z.n {
			t.Fatalf("approximate rank %d out of range", k)
		}
		s.Add(float64(k))
	}
	// With s=1 most mass is at small ranks; mean rank must be far below N/2.
	if s.Mean() > float64(z.n)/4 {
		t.Errorf("approximate zipf insufficiently skewed: mean rank %g of N=%d", s.Mean(), z.n)
	}
}

func TestZipfSamplerInterface(t *testing.T) {
	z, err := NewZipf(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	var _ Sampler = z
	r := NewRNG(5)
	if v := z.Sample(r); v < 0 || v >= 10 {
		t.Fatalf("Sample out of range: %g", v)
	}
}

// Property: ranks stay in range for arbitrary seeds and a mix of shapes.
func TestQuickZipfRange(t *testing.T) {
	shapes := []float64{0.5, 0.9, 1.0, 1.5}
	zs := make([]*Zipf, len(shapes))
	for i, s := range shapes {
		z, err := NewZipf(257, s)
		if err != nil {
			t.Fatal(err)
		}
		zs[i] = z
	}
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for _, z := range zs {
			for i := 0; i < 20; i++ {
				k := z.Rank(r)
				if k < 0 || k >= 257 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// prob is the reference the frequency tests check Rank against: the
// probability of rank k (exact mode only; the
// approximate mode returns the continuous-density estimate).
func (z *Zipf) prob(k int) float64 {
	if k < 0 || k >= z.n {
		return 0
	}
	if z.exact {
		if k == 0 {
			return z.cdf[0]
		}
		return z.cdf[k] - z.cdf[k-1]
	}
	return (z.h(float64(k)+2) - z.h(float64(k)+1)) / z.hInt
}
