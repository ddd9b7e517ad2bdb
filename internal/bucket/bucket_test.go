package bucket

import (
	"math"
	"testing"
)

// TestIndexMatchesLayout holds Index to the layout it was built from,
// on layouts unlike the log-spaced histograms': a single bucket; evenly
// spaced buckets, whose boundaries crowd into a few binades; and those
// with one more bucket from 1e300 up, which puts the guide's cell cap
// in force, so cells hold several boundaries and Index steps past them.
func TestIndexMatchesLayout(t *testing.T) {
	layouts := []struct {
		n int
		f func(float64) int
	}{
		{1, func(float64) int { return 0 }},
		{65, func(x float64) int { return int(min(x, 64)) }},
		{65, func(x float64) int {
			if x >= 1e300 {
				return 64
			}
			return int(min(x, 63))
		}},
	}
	xs := []float64{0, math.SmallestNonzeroFloat64, 1e-300, 0.5, 1, 2.5, 3, 17.25, 31, 32, 33.5, 63, 64, 1e9, 1e300, math.MaxFloat64}
	for i, l := range layouts {
		tab := New(l.n, l.f)
		for _, x := range xs {
			for _, v := range []float64{math.Nextafter(x, 0), x, math.Nextafter(x, math.Inf(1))} {
				if got, want := tab.Index(v), l.f(v); !math.IsInf(v, 1) && got != want {
					t.Errorf("layout %d: Index(%v) = %d, want %d", i, v, got, want)
				}
			}
		}
		if got := tab.Index(math.Inf(1)); got != l.n-1 {
			t.Errorf("layout %d: Index(+Inf) = %d, want the top bucket", i, got)
		}
	}
}

// TestNewRejectsUnreachableBucket: a layout that never reaches its top
// bucket is a bug in the layout, caught when its table is built.
func TestNewRejectsUnreachableBucket(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a layout that never reaches bucket 2")
		}
	}()
	New(3, func(x float64) int { return int(min(x, 1)) })
}
