package stats

import (
	"fmt"
	"math"
)

// Summary accumulates count/mean/variance/min/max online (Welford's
// algorithm) without retaining samples. Tests across the module use it
// to check sampled moments; no simulator path does.
//
//whvet:allow testonly Summary is the test suites' moment accumulator, used by tests in eight packages
type Summary struct {
	n        int64
	mean, m2 float64
	min, max float64
}

// Add records one observation.
//
//whvet:allow testonly Summary is the test suites' moment accumulator, used by tests in eight packages
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Merge folds other into s, as if all of other's observations had been
// Added to s (Chan et al. parallel variance merge).
//
//whvet:allow testonly Summary is the test suites' moment accumulator, used by tests in eight packages
func (s *Summary) Merge(other Summary) {
	if other.n == 0 {
		return
	}
	if s.n == 0 {
		*s = other
		return
	}
	n1, n2 := float64(s.n), float64(other.n)
	d := other.mean - s.mean
	tot := n1 + n2
	s.mean += d * n2 / tot
	s.m2 += other.m2 + d*d*n1*n2/tot
	if other.min < s.min {
		s.min = other.min
	}
	if other.max > s.max {
		s.max = other.max
	}
	s.n += other.n
}

// Count returns the number of observations.
//
//whvet:allow testonly Summary is the test suites' moment accumulator, used by tests in eight packages
func (s *Summary) Count() int64 { return s.n }

// Mean returns the running mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the sample variance (0 with fewer than two observations).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation (0 when empty).
//
//whvet:allow testonly Summary is the test suites' moment accumulator, used by tests in eight packages
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 when empty).
//
//whvet:allow testonly Summary is the test suites' moment accumulator, used by tests in eight packages
func (s *Summary) Max() float64 { return s.max }

// String summarizes for debugging output.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g std=%.4g min=%.4g max=%.4g",
		s.n, s.Mean(), s.Std(), s.min, s.max)
}

// HarmonicMeanOK returns the harmonic mean of xs. The paper's
// suite-level "HMean" rows combine per-benchmark throughputs (and
// reciprocals of execution times) harmonically (§3.2). It reports
// ok=false for empty input or any non-positive/NaN/Inf entry, so callers
// building suite tables omit an undefined row explicitly rather than
// propagating NaN into downstream aggregates (e.g. a measurement whose
// denominator was zero).
func HarmonicMeanOK(xs []float64) (hm float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 1) {
			return 0, false
		}
		sum += 1 / x
	}
	return float64(len(xs)) / sum, true
}
