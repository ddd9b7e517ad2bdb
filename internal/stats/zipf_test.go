package stats

import (
	"math"
	"sort"
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

// FuzzZipfRank holds the guide-table inverse CDF to a binary search of
// the same CDF, for fuzzed n, s and u, and for the uniforms on either
// side of a fuzz-chosen CDF step and of a guide bucket's edge j/n, where
// a table off by one would show.
func FuzzZipfRank(f *testing.F) {
	f.Add(uint16(1), 1.0, 0.5, uint16(0))
	f.Add(uint16(10), 1.0, 0.0, uint16(3))
	f.Add(uint16(257), 0.9, 0.999999, uint16(256))
	f.Add(uint16(1000), 1.5, 0.3, uint16(7))
	f.Add(uint16(4096), 0.01, 0.75, uint16(4000))
	f.Add(uint16(50), 300.0, 0.9, uint16(1))
	f.Fuzz(func(t *testing.T, n16 uint16, s, u float64, k16 uint16) {
		n := int(n16)
		z, err := NewZipf(n, s)
		if err != nil {
			return
		}
		k := int(k16) % n
		j := float64(int(k16) % (n + 1))
		us := []float64{u, math.Mod(math.Abs(u), 1),
			z.cdf[k], math.Nextafter(z.cdf[k], 0), math.Nextafter(z.cdf[k], 2),
			j / float64(n), math.Nextafter(j/float64(n), 0), math.Nextafter(j/float64(n), 2)}
		for _, u := range us {
			if !(u >= 0 && u < 1) {
				continue
			}
			if got, want := z.rank(u), sort.SearchFloat64s(z.cdf, u); got != want {
				t.Fatalf("n=%d s=%g: rank(%v) = %d, binary search gives %d", n, s, u, got, want)
			}
		}
	})
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
