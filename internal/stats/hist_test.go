package stats

import (
	"math"
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
