package stats

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// constant is a Sampler that always returns its value: the fixed
// substitute the Sampler interface exists to admit.
type constant float64

// Sample implements Sampler.
func (c constant) Sample(*RNG) float64 { return float64(c) }

// uniform samples uniformly from [Lo, Hi).
type uniform struct {
	Lo, Hi float64
}

// Sample implements Sampler.
func (u uniform) Sample(r *RNG) float64 {
	return u.Lo + (u.Hi-u.Lo)*r.Float64()
}

func TestConstantSampler(t *testing.T) {
	r := NewRNG(1)
	c := constant(4.2)
	for i := 0; i < 10; i++ {
		if v := c.Sample(r); v != 4.2 {
			t.Fatalf("constant returned %g", v)
		}
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(2)
	u := uniform{Lo: 3, Hi: 9}
	var s Summary
	for i := 0; i < 100000; i++ {
		v := u.Sample(r)
		if v < 3 || v >= 9 {
			t.Fatalf("uniform out of range: %g", v)
		}
		s.Add(v)
	}
	if m := s.Mean(); math.Abs(m-6) > 0.05 {
		t.Errorf("uniform mean %g, want ~6", m)
	}
}

func TestExponentialMean(t *testing.T) {
	r := NewRNG(3)
	e := Exponential{Mean: 2.5}
	var s Summary
	for i := 0; i < 200000; i++ {
		s.Add(e.Sample(r))
	}
	if m := s.Mean(); math.Abs(m-2.5) > 0.05 {
		t.Errorf("Exponential mean %g, want ~2.5", m)
	}
}

func TestLogNormalFromMeanP50(t *testing.T) {
	l := LogNormalFromMeanP50(100, 40)
	r := NewRNG(4)
	var s Summary
	samples := make([]float64, 0, 200000)
	for i := 0; i < 200000; i++ {
		v := l.Sample(r)
		s.Add(v)
		samples = append(samples, v)
	}
	if m := s.Mean(); math.Abs(m-100)/100 > 0.05 {
		t.Errorf("LogNormal mean %g, want ~100", m)
	}
	if med := percentile(samples, 50); math.Abs(med-40)/40 > 0.05 {
		t.Errorf("LogNormal median %g, want ~40", med)
	}
}

func TestLogNormalFromMeanP50Panics(t *testing.T) {
	for _, tc := range []struct{ mean, p50 float64 }{{10, 10}, {5, 10}, {10, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for mean=%g p50=%g", tc.mean, tc.p50)
				}
			}()
			LogNormalFromMeanP50(tc.mean, tc.p50)
		}()
	}
}

// pareto samples a bounded Pareto distribution with shape Alpha on
// [Min, Max]: a heavy-tailed sampler the quantile tests exercise.
type pareto struct {
	Alpha    float64
	Min, Max float64
}

// Sample implements Sampler.
func (p pareto) Sample(r *RNG) float64 {
	if p.Min <= 0 || p.Max <= p.Min {
		panic(fmt.Sprintf("stats: invalid bounded pareto [%g,%g]", p.Min, p.Max))
	}
	u := r.Float64()
	la := math.Pow(p.Min, p.Alpha)
	ha := math.Pow(p.Max, p.Alpha)
	x := math.Pow(-(u*ha-u*la-ha)/(ha*la), -1/p.Alpha)
	if x < p.Min {
		x = p.Min
	}
	if x > p.Max {
		x = p.Max
	}
	return x
}

func TestParetoBounds(t *testing.T) {
	r := NewRNG(5)
	p := pareto{Alpha: 1.2, Min: 10, Max: 10000}
	for i := 0; i < 100000; i++ {
		v := p.Sample(r)
		if v < 10 || v > 10000 {
			t.Fatalf("pareto out of bounds: %g", v)
		}
	}
}

func TestParetoHeavyTail(t *testing.T) {
	r := NewRNG(6)
	p := pareto{Alpha: 1.1, Min: 1, Max: 1e6}
	samples := make([]float64, 0, 100000)
	for i := 0; i < 100000; i++ {
		samples = append(samples, p.Sample(r))
	}
	med := percentile(samples, 50)
	p99 := percentile(samples, 99)
	if p99/med < 20 {
		t.Errorf("pareto tail too light: p99/median = %g", p99/med)
	}
}

func TestEmpiricalErrors(t *testing.T) {
	if _, err := NewEmpirical(nil, nil); err == nil {
		t.Error("empty empirical accepted")
	}
	if _, err := NewEmpirical([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	if _, err := NewEmpirical([]float64{1, 2}, []float64{-1, 2}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewEmpirical([]float64{1, 2}, []float64{0, 0}); err == nil {
		t.Error("zero total weight accepted")
	}
}

func TestEmpiricalFrequencies(t *testing.T) {
	e, err := NewEmpirical([]float64{10, 20, 30}, []float64{1, 2, 7})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRNG(7)
	counts := map[float64]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[e.Sample(r)]++
	}
	for v, want := range map[float64]float64{10: 0.1, 20: 0.2, 30: 0.7} {
		got := float64(counts[v]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("value %g frequency %g, want ~%g", v, got, want)
		}
	}
}

func TestClamp(t *testing.T) {
	r := NewRNG(8)
	c := Clamp{S: LogNormal{Mu: 0, Sigma: 3}, Lo: 0.5, Hi: 2}
	for i := 0; i < 10000; i++ {
		v := c.Sample(r)
		if v < 0.5 || v > 2 {
			t.Fatalf("Clamp leaked %g", v)
		}
	}
}

// Property: empirical SampleIndex always returns a valid index.
func TestQuickEmpiricalIndex(t *testing.T) {
	e, err := NewEmpirical([]float64{0, 1, 2, 3}, []float64{0.5, 0, 3, 1})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for i := 0; i < 50; i++ {
			idx := e.index(r)
			if idx < 0 || idx >= 4 {
				return false
			}
			if idx == 1 { // zero-weight value must never be drawn
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
