// Package bucket maps a value to its bucket under a fixed monotone
// histogram layout without evaluating the layout's formula: a table of
// bucket boundaries plus a guide indexed by the value's exponent and
// top mantissa bits narrows the search to a step or two of comparison.
// The log-spaced histograms (obs.Hist, stats.Histogram) define their
// layouts by a logarithm and derive a Table from it once, so recording
// an observation takes no logarithm.
//
// Like package obs, this package imports only the standard library.
package bucket

import (
	"fmt"
	"math"
)

// Table is the bucket lookup of one layout. It is immutable after New,
// so one Table serves every histogram of its layout, on any goroutine.
type Table struct {
	// lower[i] is the smallest value of bucket i+1; lower[n-1] is +Inf,
	// so the step loop in Index stops without a length check.
	lower []float64
	// guide[c] is the bucket of the smallest value of cell c: a cell is
	// the run of values that share a float64 bit pattern above shift,
	// numbered from the cell of lower[0].
	guide []int32
	shift uint
	base  int
}

// New derives the table of an n-bucket layout from f, which maps every
// non-negative finite value to its bucket. f must be nondecreasing and
// reach n-1 at math.MaxFloat64. It runs f about 64 times per bucket.
func New(n int, f func(float64) int) *Table {
	if n < 1 {
		panic(fmt.Sprintf("bucket: layout of %d buckets", n))
	}
	t := &Table{lower: make([]float64, n)}
	// lower[i-1] is the first bit pattern whose value f puts at or
	// above bucket i; non-negative floats order as their bit patterns.
	top := math.Float64bits(math.MaxFloat64)
	var a uint64
	for i := 1; i < n; i++ {
		b := top
		for a < b {
			if m := a + (b-a)/2; f(math.Float64frombits(m)) >= i {
				b = m
			} else {
				a = m + 1
			}
		}
		if f(math.Float64frombits(a)) < i {
			panic(fmt.Sprintf("bucket: layout never reaches bucket %d of %d", i, n))
		}
		t.lower[i-1] = math.Float64frombits(a)
	}
	t.lower[n-1] = math.Inf(1)
	if n > 1 {
		t.buildGuide(t.lower[:n-1])
	}
	return t
}

// buildGuide picks the coarsest cells that hold at most one boundary
// each, so Index steps at most once past the guide, unless that would
// take more than 16 cells a bucket; then it fills the guide.
func (t *Table) buildGuide(bounds []float64) {
	cell := func(x float64, shift uint) int { return int(math.Float64bits(x) >> shift) }
	span := func(shift uint) int { return cell(bounds[len(bounds)-1], shift) - cell(bounds[0], shift) + 1 }
	t.shift = 52
	for t.shift > 32 && span(t.shift-1) <= 16*len(bounds)+64 {
		distinct := true
		for i := 1; i < len(bounds); i++ {
			if cell(bounds[i], t.shift) == cell(bounds[i-1], t.shift) {
				distinct = false
				break
			}
		}
		if distinct {
			break
		}
		t.shift--
	}
	t.base = cell(bounds[0], t.shift)
	t.guide = make([]int32, span(t.shift))
	i := 0
	for c := range t.guide {
		start := math.Float64frombits(uint64(t.base+c) << t.shift)
		for i < len(bounds) && bounds[i] <= start {
			i++
		}
		t.guide[c] = int32(i)
	}
}

// Index returns the bucket of x, which must be non-negative and not
// NaN; +Inf lands in the top bucket.
func (t *Table) Index(x float64) int {
	c := int(math.Float64bits(x)>>t.shift) - t.base
	if uint(c) >= uint(len(t.guide)) {
		if c < 0 {
			return 0
		}
		return len(t.lower) - 1
	}
	i := int(t.guide[c])
	for x >= t.lower[i] {
		i++
	}
	return i
}
