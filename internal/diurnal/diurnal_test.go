package diurnal

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCurves(t *testing.T) {
	c := TypicalInternet()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Peak() != 1.0 {
		t.Errorf("peak = %g", c.Peak())
	}
	if m := c.Mean(); m <= 0.5 || m >= 0.9 {
		t.Errorf("mean = %g implausible for a diurnal curve", m)
	}
	// Overnight trough below daytime.
	if c[4] >= c[14] {
		t.Error("no overnight trough")
	}

	f := flat(0.8)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Mean()-0.8) > 1e-12 || f.Peak() != 0.8 {
		t.Error("flat curve not flat")
	}
}

func TestCurveValidate(t *testing.T) {
	c := flat(0.5)
	c[3] = 0
	if c.Validate() == nil {
		t.Error("zero hour accepted")
	}
	c[3] = 1.5
	if c.Validate() == nil {
		t.Error(">1 hour accepted")
	}
}

func TestServerPower(t *testing.T) {
	sp := ServerPower{IdleW: 100, PeakW: 200}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if sp.At(0) != 100 || sp.At(1) != 200 || sp.At(0.5) != 150 {
		t.Error("linear power model wrong")
	}
	if sp.At(-1) != 100 || sp.At(2) != 200 {
		t.Error("clamping wrong")
	}
	if (ServerPower{IdleW: 300, PeakW: 200}).Validate() == nil {
		t.Error("idle > peak accepted")
	}
}

func TestAllOnEnergy(t *testing.T) {
	sp := ServerPower{IdleW: 150, PeakW: 250}
	// flat full load, 10 servers, util 1: 10*250W*24h = 60 kWh.
	e, err := EnergyKWhPerDay(10, sp, flat(1), AllOn, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e-60) > 1e-9 {
		t.Errorf("energy = %g, want 60", e)
	}
}

func TestConsolidationSavesOnDiurnal(t *testing.T) {
	sp := ServerPower{IdleW: 150, PeakW: 250} // poor energy proportionality
	s, err := SavingsFraction(100, sp, TypicalInternet(), 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0.05 || s >= 0.6 {
		t.Errorf("savings = %.2f implausible", s)
	}
	// A perfectly energy-proportional server saves almost nothing.
	prop := ServerPower{IdleW: 0, PeakW: 250}
	sProp, err := SavingsFraction(100, prop, TypicalInternet(), 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if sProp >= s {
		t.Errorf("proportional server saved more (%.2f) than non-proportional (%.2f)", sProp, s)
	}
}

func TestConsolidationNoSavingsOnFlatPeak(t *testing.T) {
	sp := ServerPower{IdleW: 150, PeakW: 250}
	s, err := SavingsFraction(50, sp, flat(1), 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s) > 1e-9 {
		t.Errorf("flat peak load should have no consolidation savings, got %g", s)
	}
}

func TestEnergyValidation(t *testing.T) {
	sp := ServerPower{IdleW: 1, PeakW: 2}
	if _, err := EnergyKWhPerDay(0, sp, flat(1), AllOn, 1); err == nil {
		t.Error("zero servers accepted")
	}
	if _, err := EnergyKWhPerDay(1, sp, flat(1), AllOn, 0); err == nil {
		t.Error("zero utilization accepted")
	}
	if _, err := EnergyKWhPerDay(1, sp, flat(1), Policy(9), 1); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestPolicyStrings(t *testing.T) {
	if AllOn.String() != "all-on" || Consolidate.String() != "consolidate" {
		t.Error("policy strings wrong")
	}
}

// Property: consolidation never uses more energy than all-on.
func TestQuickConsolidateNeverWorse(t *testing.T) {
	f := func(idleRaw, utilRaw float64, nRaw uint8) bool {
		idle := math.Mod(math.Abs(idleRaw), 200)
		sp := ServerPower{IdleW: idle, PeakW: 250}
		util := 0.1 + math.Mod(math.Abs(utilRaw), 0.9)
		n := 1 + int(nRaw)
		allOn, err1 := EnergyKWhPerDay(n, sp, TypicalInternet(), AllOn, util)
		cons, err2 := EnergyKWhPerDay(n, sp, TypicalInternet(), Consolidate, util)
		if err1 != nil || err2 != nil {
			return false
		}
		return cons <= allOn+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// flat returns a constant curve at the given level — the paper's
// sustained-load assumption, the reference the savings tests compare
// diurnal curves against.
func flat(level float64) Curve {
	var c Curve
	for i := range c {
		c[i] = level
	}
	return c
}
