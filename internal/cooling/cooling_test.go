package cooling

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestConventionalFanPowerMatchesCatalogScale(t *testing.T) {
	// A 340W 1U server (srvr1 class) should need ~40W of fans — the value
	// the platform catalog carries.
	got := EnclosureFor(Conventional).FanPowerW(340)
	if math.Abs(got-40)/40 > 0.05 {
		t.Errorf("conventional fan power for 340W = %gW, want ~40W", got)
	}
}

func TestFanPowerZeroForIdle(t *testing.T) {
	for _, d := range []Design{Conventional, DualEntry, AggregatedMicroblade} {
		if got := EnclosureFor(d).FanPowerW(0); got != 0 {
			t.Errorf("%v: fan power for 0W IT = %g", d, got)
		}
	}
}

// The paper claims the two new designs "have the potential to improve
// efficiencies by 2X and 4X" (§3.3).
func TestEfficiencyFactorsMatchPaper(t *testing.T) {
	dual := EnclosureFor(DualEntry).EfficiencyVsConventional()
	if dual < 1.8 || dual > 2.8 {
		t.Errorf("dual-entry efficiency = %.2fx, paper ~2x", dual)
	}
	agg := EnclosureFor(AggregatedMicroblade).EfficiencyVsConventional()
	if agg < 3.4 || agg > 4.6 {
		t.Errorf("aggregated efficiency = %.2fx, paper ~4x", agg)
	}
	if agg <= dual {
		t.Errorf("aggregated (%g) should beat dual-entry (%g)", agg, dual)
	}
}

func TestEfficiencyConsistentWithFanPower(t *testing.T) {
	// EfficiencyVsConventional must equal the fan-power ratio.
	for _, d := range []Design{DualEntry, AggregatedMicroblade} {
		e := EnclosureFor(d)
		want := EnclosureFor(Conventional).FanPowerW(100) / e.FanPowerW(100)
		got := e.EfficiencyVsConventional()
		if math.Abs(got-want)/want > 1e-9 {
			t.Errorf("%v: efficiency %g != fan ratio %g", d, got, want)
		}
	}
}

// Paper densities: 40 baseline, 320 dual-entry (75W blades), 1250
// aggregated microblades.
func TestDensitiesMatchPaper(t *testing.T) {
	if got := EnclosureFor(Conventional).Density(340); got != 40 {
		t.Errorf("conventional density = %d", got)
	}
	if got := EnclosureFor(DualEntry).Density(75); got != 320 {
		t.Errorf("dual-entry density = %d", got)
	}
	if got := EnclosureFor(AggregatedMicroblade).Density(30); got != 1250 {
		t.Errorf("aggregated density = %d", got)
	}
}

func TestDensityFallsBackWhenTooHot(t *testing.T) {
	if got := EnclosureFor(DualEntry).Density(340); got != 40 {
		t.Errorf("hot server in dual-entry should fall back to 40, got %d", got)
	}
	if got := EnclosureFor(AggregatedMicroblade).Density(78); got != 40 {
		t.Errorf("mobl-class in aggregated should fall back to 40, got %d", got)
	}
}

func TestRoomCoolingFactor(t *testing.T) {
	if got := EnclosureFor(Conventional).RoomCoolingFactor(); math.Abs(got-1) > 1e-12 {
		t.Errorf("conventional factor = %g, want 1", got)
	}
	dual := EnclosureFor(DualEntry).RoomCoolingFactor()
	agg := EnclosureFor(AggregatedMicroblade).RoomCoolingFactor()
	if dual >= 1 || agg >= dual {
		t.Errorf("factors not improving: dual %g, aggregated %g", dual, agg)
	}
	// Consistency with the allowed-rise ratios that drive fan power.
	want := EnclosureFor(Conventional).allowedRiseC() / EnclosureFor(DualEntry).allowedRiseC()
	if math.Abs(dual-want) > 1e-12 {
		t.Errorf("dual factor %g inconsistent with rise ratio %g", dual, want)
	}
}

func TestHeatPipeConductionGain(t *testing.T) {
	// Planar heat pipes transfer heat at 3x copper's conductivity
	// (Figure 3b), i.e. one third the conduction resistance.
	cu := thermalResistance(copperConductivity, 0.1, 0.0004)
	hp := thermalResistance(heatPipeConductivity, 0.1, 0.0004)
	if math.Abs(cu/hp-3) > 1e-9 {
		t.Errorf("heat pipe gain = %g, want 3", cu/hp)
	}
}

func TestThermalResistancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad spec did not panic")
		}
	}()
	thermalResistance(0, 1, 1)
}

// Edge inputs: negative IT power draws no fans, an enclosure whose
// pre-heat consumes the whole air budget floors at a 1C rise instead of
// dividing by zero (or going negative), and the degenerate geometry
// still produces finite positive fan power.
func TestFanPowerEdgeInputs(t *testing.T) {
	for _, d := range []Design{Conventional, DualEntry, AggregatedMicroblade} {
		if got := EnclosureFor(d).FanPowerW(-50); got != 0 {
			t.Errorf("%v: fan power for negative IT = %g, want 0", d, got)
		}
	}
	hot := EnclosureFor(Conventional)
	hot.PreheatC = maxAirTempC - inletTempC + 10 // pre-heat past the exhaust limit
	if got := hot.allowedRiseC(); got != 1 {
		t.Errorf("over-preheated rise = %g, want the 1C floor", got)
	}
	fan := hot.FanPowerW(100)
	if math.IsNaN(fan) || math.IsInf(fan, 0) || fan <= 0 {
		t.Errorf("over-preheated fan power = %g, want finite positive", fan)
	}
	// The floor makes an impossibly pre-heated enclosure strictly worse
	// than the design geometry, never better.
	if fan <= EnclosureFor(Conventional).FanPowerW(100) {
		t.Errorf("over-preheated enclosure got cheaper fans: %g", fan)
	}
}

func TestThermalResistanceRejectsBadArea(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero area did not panic")
		}
	}()
	thermalResistance(copperConductivity, 0.1, 0)
}

func TestDesignString(t *testing.T) {
	for d, want := range map[Design]string{
		Conventional:         "conventional-1U",
		DualEntry:            "dual-entry-directed-airflow",
		AggregatedMicroblade: "aggregated-microblade",
		Design(99):           "Design(99)",
	} {
		if got := d.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(d), got, want)
		}
	}
}

// Property: fan power is positive and monotone in IT power for all
// designs, and the new designs never need more fan power than the
// conventional one.
func TestQuickFanPowerMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		p1 := math.Abs(a)
		p2 := p1 + math.Abs(b)
		if p1 > 1e6 || p2 > 1e6 {
			return true // skip absurd inputs
		}
		conv := EnclosureFor(Conventional)
		for _, d := range []Design{Conventional, DualEntry, AggregatedMicroblade} {
			e := EnclosureFor(d)
			f1, f2 := e.FanPowerW(p1), e.FanPowerW(p2)
			if f1 < 0 || f2 < f1-1e-12 {
				return false
			}
			if f1 > conv.FanPowerW(p1)+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// thermalResistance returns the conduction thermal resistance (K/W) of a
// spreading path with the given conductivity, length and cross-section:
// the first-principles reference the heat-pipe test checks the
// model's 3x conductivity constant against.
func thermalResistance(conductivity, lengthM, areaM2 float64) float64 {
	if conductivity <= 0 || areaM2 <= 0 {
		panic(fmt.Sprintf("cooling: invalid resistance spec k=%g A=%g", conductivity, areaM2))
	}
	return lengthM / (conductivity * areaM2)
}
