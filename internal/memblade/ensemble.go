package memblade

import (
	"fmt"
	"math"
	"sort"

	"warehousesim/internal/stats"
)

// Ensemble provisioning study (§3.4's motivation): "memory demands
// across workloads vary widely, and past studies have shown that
// per-server sizing for peak loads can lead to significant
// ensemble-level overprovisioning". This Monte Carlo model quantifies
// it: each server's memory demand fluctuates; per-server provisioning
// must cover each server's own peak percentile, while blade-level
// provisioning only covers the percentile of the *aggregate* — which is
// much tighter because peaks do not align.

// EnsembleConfig parameterizes the study.
type EnsembleConfig struct {
	// Servers per provisioning pool (e.g. per blade enclosure).
	Servers int
	// MeanGB and PeakToMean describe per-server demand: demand samples
	// are log-normal with the given mean, and PeakToMean is the
	// p99/mean ratio of an individual server.
	MeanGB     float64
	PeakToMean float64
	// Percentile is the provisioning target (e.g. 0.99).
	Percentile float64
	// Samples is the Monte Carlo sample count.
	Samples int
	// Seed drives sampling.
	Seed uint64
}

// DefaultEnsembleConfig mirrors the paper's enclosure scale.
func DefaultEnsembleConfig() EnsembleConfig {
	return EnsembleConfig{
		Servers:    16,
		MeanGB:     2.0,
		PeakToMean: 2.0,
		Percentile: 0.99,
		Samples:    4000,
		Seed:       1,
	}
}

// Validate reports nonsensical configurations.
func (c EnsembleConfig) Validate() error {
	switch {
	case c.Servers <= 0:
		return fmt.Errorf("memblade: ensemble needs servers > 0")
	case c.MeanGB <= 0:
		return fmt.Errorf("memblade: non-positive mean demand")
	case c.PeakToMean <= 1:
		return fmt.Errorf("memblade: peak/mean must exceed 1")
	case c.Percentile <= 0 || c.Percentile >= 1:
		return fmt.Errorf("memblade: percentile %g outside (0,1)", c.Percentile)
	case c.Samples < 100:
		return fmt.Errorf("memblade: need at least 100 samples")
	}
	return nil
}

// EnsembleResult compares the two provisioning strategies.
type EnsembleResult struct {
	// PerServerGB is the per-server provision covering each server's own
	// demand percentile (what conventional blades must install).
	PerServerGB float64
	// PooledPerServerGB is the pool provision per server when the blade
	// covers the aggregate percentile.
	PooledPerServerGB float64
}

// SavingsFraction is the DRAM the blade avoids buying.
func (r EnsembleResult) SavingsFraction() float64 {
	if r.PerServerGB == 0 {
		return 0
	}
	return 1 - r.PooledPerServerGB/r.PerServerGB
}

// SimulateEnsemble runs the Monte Carlo comparison.
func SimulateEnsemble(c EnsembleConfig) (EnsembleResult, error) {
	if err := c.Validate(); err != nil {
		return EnsembleResult{}, err
	}
	// Log-normal with the requested p99/mean ratio: solve sigma from
	// p99/mean = exp(2.326 sigma - sigma^2/2).
	sigma := solveSigma(c.PeakToMean, c.Percentile)
	dist := stats.LogNormalFromMeanP50(c.MeanGB, c.MeanGB*medianFactor(sigma))

	r := stats.NewRNG(c.Seed)
	perServer := make([]float64, 0, c.Samples*c.Servers)
	aggregate := make([]float64, 0, c.Samples)
	for s := 0; s < c.Samples; s++ {
		sum := 0.0
		for i := 0; i < c.Servers; i++ {
			d := dist.Sample(r)
			perServer = append(perServer, d)
			sum += d
		}
		aggregate = append(aggregate, sum)
	}
	sort.Float64s(perServer)
	sort.Float64s(aggregate)
	q := func(xs []float64, p float64) float64 {
		i := int(p * float64(len(xs)))
		if i >= len(xs) {
			i = len(xs) - 1
		}
		return xs[i]
	}
	return EnsembleResult{
		PerServerGB:       q(perServer, c.Percentile),
		PooledPerServerGB: q(aggregate, c.Percentile) / float64(c.Servers),
	}, nil
}

// medianFactor converts a log-normal sigma into median/mean
// (median = mean * exp(-sigma^2/2)).
func medianFactor(sigma float64) float64 {
	return math.Exp(-sigma * sigma / 2)
}

// solveSigma finds sigma such that quantile(p)/mean of a log-normal
// equals ratio: ratio = exp(z_p*sigma - sigma^2/2), solved by bisection
// (monotone increasing in sigma for sigma < z_p).
func solveSigma(ratio, p float64) float64 {
	z := normalQuantile(p)
	lo, hi := 1e-4, z*0.99
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		got := math.Exp(z*mid - mid*mid/2)
		if got < ratio {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// normalQuantile is the standard normal inverse CDF (Acklam-style
// rational approximation, ample for provisioning percentiles).
func normalQuantile(p float64) float64 {
	// Coefficients for the central region approximation.
	a := []float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := []float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := []float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := []float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const pLow = 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
}
