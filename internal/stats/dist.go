package stats

import (
	"fmt"
	"math"
	"sort"
)

// Sampler is a source of float64 variates. All workload generators accept
// a Sampler so tests can substitute fixed sequences.
type Sampler interface {
	Sample(r *RNG) float64
}

// Exponential samples an exponential distribution with the given Mean.
// It models think times and inter-arrival gaps in the client driver.
type Exponential struct {
	Mean float64
}

// Sample implements Sampler.
func (e Exponential) Sample(r *RNG) float64 {
	return e.Mean * r.ExpFloat64()
}

// LogNormal samples a log-normal distribution parameterized by the
// location Mu and scale Sigma of the underlying normal. It models e-mail
// and attachment sizes (heavily right-skewed, as in the LoadSim profile).
type LogNormal struct {
	Mu, Sigma float64
}

// Sample implements Sampler.
func (l LogNormal) Sample(r *RNG) float64 {
	return math.Exp(l.Mu + l.Sigma*r.NormFloat64())
}

// LogNormalFromMeanP50 builds a LogNormal whose median is p50 and whose
// mean is mean. It panics if mean <= p50 or p50 <= 0; a log-normal mean
// always exceeds its median.
func LogNormalFromMeanP50(mean, p50 float64) LogNormal {
	if p50 <= 0 || mean <= p50 {
		panic(fmt.Sprintf("stats: invalid log-normal spec mean=%g p50=%g", mean, p50))
	}
	mu := math.Log(p50)
	// mean = exp(mu + sigma^2/2)  =>  sigma = sqrt(2 (ln mean - mu)).
	sigma := math.Sqrt(2 * (math.Log(mean) - mu))
	return LogNormal{Mu: mu, Sigma: sigma}
}

// Empirical samples from a fixed set of (value, weight) points — an
// empirical distribution such as a measured action mix.
type Empirical struct {
	values  []float64
	cum     []float64 // cumulative weights, strictly increasing
	totalWt float64
}

// NewEmpirical builds an empirical distribution. values and weights must
// have equal nonzero length and weights must be non-negative with a
// positive sum.
func NewEmpirical(values, weights []float64) (*Empirical, error) {
	if len(values) == 0 || len(values) != len(weights) {
		return nil, fmt.Errorf("stats: empirical needs matching non-empty values/weights, got %d/%d", len(values), len(weights))
	}
	e := &Empirical{
		values: append([]float64(nil), values...),
		cum:    make([]float64, len(weights)),
	}
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			return nil, fmt.Errorf("stats: empirical weight %d is invalid: %g", i, w)
		}
		e.totalWt += w
		e.cum[i] = e.totalWt
	}
	if e.totalWt <= 0 {
		return nil, fmt.Errorf("stats: empirical weights sum to %g", e.totalWt)
	}
	return e, nil
}

// Sample implements Sampler.
func (e *Empirical) Sample(r *RNG) float64 {
	return e.values[e.index(r)]
}

func (e *Empirical) index(r *RNG) int {
	u := r.Float64() * e.totalWt
	return sort.SearchFloat64s(e.cum, u)
}

// Clamp wraps a Sampler and clamps its output to [Lo, Hi].
type Clamp struct {
	S      Sampler
	Lo, Hi float64
}

// Sample implements Sampler.
func (c Clamp) Sample(r *RNG) float64 {
	v := c.S.Sample(r)
	if v < c.Lo {
		return c.Lo
	}
	if v > c.Hi {
		return c.Hi
	}
	return v
}
