package stats

import (
	"fmt"
	"math"
	"sort"
)

// Zipf draws ranks in [0, N) with probability proportional to
// 1/(rank+1)^S. The paper uses Zipf distributions for search keyword
// popularity (§2.1, after Xie & O'Hallaron) and for YouTube video
// popularity (after Gill et al.).
//
// For moderate N the generator precomputes the CDF and samples by binary
// search (exact, O(log N) per draw). For very large N it falls back to an
// approximate inverse-CDF method that avoids the O(N) setup cost.
type Zipf struct {
	n     int
	s     float64
	cdf   []float64 // nil when using the approximate path
	hInt  float64   // integral constant for the approximate path
	hX1   float64
	exact bool
}

// cdfLimit is the largest N for which we precompute an exact CDF.
const cdfLimit = 1 << 22

// NewZipf builds a Zipf distribution over n ranks with exponent s > 0.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("stats: zipf needs n > 0, got %d", n)
	}
	if s <= 0 || math.IsNaN(s) {
		return nil, fmt.Errorf("stats: zipf needs s > 0, got %g", s)
	}
	z := &Zipf{n: n, s: s}
	if n <= cdfLimit {
		z.exact = true
		z.cdf = make([]float64, n)
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += math.Pow(float64(i+1), -s)
			z.cdf[i] = sum
		}
		// Normalize so binary search can use uniforms in [0,1).
		inv := 1 / sum
		for i := range z.cdf {
			z.cdf[i] *= inv
		}
		z.cdf[n-1] = 1 // guard against rounding
		return z, nil
	}
	// Approximate continuous inversion: treat the PMF as the density
	// c/x^s on [1, n+1) and invert its integral H.
	z.hX1 = z.h(1)
	z.hInt = z.h(float64(n)+1) - z.hX1
	return z, nil
}

// h is the antiderivative of x^-s (handling s == 1).
func (z *Zipf) h(x float64) float64 {
	if z.s == 1 {
		return math.Log(x)
	}
	return math.Pow(x, 1-z.s) / (1 - z.s)
}

func (z *Zipf) hInv(y float64) float64 {
	if z.s == 1 {
		return math.Exp(y)
	}
	return math.Pow(y*(1-z.s), 1/(1-z.s))
}

// Rank draws a rank in [0, N), with rank 0 the most popular.
func (z *Zipf) Rank(r *RNG) int {
	if z.exact {
		u := r.Float64()
		return sort.SearchFloat64s(z.cdf, u)
	}
	u := r.Float64()
	x := z.hInv(z.hX1 + u*z.hInt)
	k := int(x) - 1
	if k < 0 {
		k = 0
	}
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// Sample implements Sampler, returning the rank as a float64.
func (z *Zipf) Sample(r *RNG) float64 { return float64(z.Rank(r)) }
