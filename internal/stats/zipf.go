package stats

import (
	"fmt"
	"math"
)

// Zipf draws ranks in [0, N) with probability proportional to
// 1/(rank+1)^S. The paper uses Zipf distributions for search keyword
// popularity (§2.1, after Xie & O'Hallaron) and for YouTube video
// popularity (after Gill et al.).
//
// For moderate N the generator precomputes the CDF and samples it
// exactly through a guide table (Chen and Asau; Devroye, Non-Uniform
// Random Variate Generation, 1986, §III.2.4): O(1) expected per draw,
// and the same rank a binary search of the CDF returns. For very large
// N it falls back to an approximate inverse-CDF method that avoids the
// O(N) setup cost.
type Zipf struct {
	n     int
	s     float64
	cdf   []float64 // nil when using the approximate path
	guide []int32   // guide[j] is the first i with cdf[i]*n >= j, j in 0..n
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
		z.guide = make([]int32, n+1)
		i := 0
		for j := range z.guide {
			for z.cdf[i]*float64(n) < float64(j) {
				i++
			}
			z.guide[j] = int32(i)
		}
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
		return z.rank(r.Float64())
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

// rank is the exact path's inverse CDF: the first i with cdf[i] >= u, for
// u in [0, 1). Float multiplication is monotone, so that i has
// cdf[i]*n >= u*n >= int(u*n) and the scan, which starts at or before
// it, stops on it; cdf[n-1] = 1 bounds the scan.
func (z *Zipf) rank(u float64) int {
	i := int(z.guide[int(u*float64(z.n))])
	for z.cdf[i] < u {
		i++
	}
	return i
}

// Sample implements Sampler, returning the rank as a float64.
func (z *Zipf) Sample(r *RNG) float64 { return float64(z.Rank(r)) }
