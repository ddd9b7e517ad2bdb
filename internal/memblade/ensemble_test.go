package memblade

import (
	"math"
	"testing"
)

func TestNormalQuantile(t *testing.T) {
	cases := map[float64]float64{
		0.5:   0,
		0.975: 1.9600,
		0.99:  2.3263,
		0.01:  -2.3263,
		0.001: -3.0902,
	}
	for p, want := range cases {
		if got := normalQuantile(p); math.Abs(got-want) > 0.002 {
			t.Errorf("quantile(%g) = %g, want %g", p, got, want)
		}
	}
}

func TestSolveSigma(t *testing.T) {
	// The solved sigma must reproduce the requested peak/mean ratio.
	for _, ratio := range []float64{1.3, 2.0, 3.0} {
		sigma := solveSigma(ratio, 0.99)
		z := normalQuantile(0.99)
		got := math.Exp(z*sigma - sigma*sigma/2)
		if math.Abs(got-ratio)/ratio > 0.01 {
			t.Errorf("ratio %g: sigma %g reproduces %g", ratio, sigma, got)
		}
	}
}

func TestEnsembleConfigValidate(t *testing.T) {
	if err := DefaultEnsembleConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*EnsembleConfig){
		func(c *EnsembleConfig) { c.Servers = 0 },
		func(c *EnsembleConfig) { c.MeanGB = 0 },
		func(c *EnsembleConfig) { c.PeakToMean = 1 },
		func(c *EnsembleConfig) { c.Percentile = 1 },
		func(c *EnsembleConfig) { c.Samples = 10 },
	}
	for i, mutate := range bads {
		c := DefaultEnsembleConfig()
		mutate(&c)
		if c.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestSimulateEnsembleShowsPoolingWin(t *testing.T) {
	res, err := SimulateEnsemble(DefaultEnsembleConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Per-server provisioning must be near mean*peakToMean.
	cfg := DefaultEnsembleConfig()
	want := cfg.MeanGB * cfg.PeakToMean
	if math.Abs(res.PerServerGB-want)/want > 0.15 {
		t.Errorf("per-server provision %g, want ~%g", res.PerServerGB, want)
	}
	// Pooling must sit between the mean and the per-server peak.
	if res.PooledPerServerGB <= cfg.MeanGB || res.PooledPerServerGB >= res.PerServerGB {
		t.Errorf("pooled %g not in (%g, %g)", res.PooledPerServerGB, cfg.MeanGB, res.PerServerGB)
	}
	// The paper's claim: significant overprovisioning (>25% savings at
	// this demand variability and pool size).
	if res.SavingsFraction() < 0.25 {
		t.Errorf("pooling savings only %.0f%%", res.SavingsFraction()*100)
	}
	if res.PerServerGB <= res.PooledPerServerGB {
		t.Errorf("per-server %g GB not above pooled %g GB", res.PerServerGB, res.PooledPerServerGB)
	}
}

func TestPoolingImprovesWithScale(t *testing.T) {
	savings := func(servers int) float64 {
		cfg := DefaultEnsembleConfig()
		cfg.Servers = servers
		res, err := SimulateEnsemble(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.SavingsFraction()
	}
	s4, s64 := savings(4), savings(64)
	if s64 <= s4 {
		t.Errorf("bigger pools should save more: 4 servers %.2f vs 64 servers %.2f", s4, s64)
	}
}

func TestSimulateEnsembleDeterministic(t *testing.T) {
	a, err := SimulateEnsemble(DefaultEnsembleConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateEnsemble(DefaultEnsembleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestEnsembleResultEdgeCases(t *testing.T) {
	if (EnsembleResult{}).SavingsFraction() != 0 {
		t.Error("zero per-server should return 0 savings")
	}
}
