package power

import (
	"math"
	"testing"

	"warehousesim/internal/platform"
)

func TestNewModelValidation(t *testing.T) {
	for _, bad := range []float64{0, -0.5, 1.5} {
		if _, err := NewModel(bad); err == nil {
			t.Errorf("activity factor %g accepted", bad)
		}
	}
	m, err := NewModel(0.75)
	if err != nil || m.ActivityFactor != 0.75 {
		t.Fatalf("NewModel(0.75) = %+v, %v", m, err)
	}
}

func TestServerConsumedSrvr1(t *testing.T) {
	m := DefaultModel()
	rack := platform.DefaultRack()
	b := m.ServerConsumed(platform.Srvr1(), rack)
	// (340 server + 1 switch share) * 0.75.
	if got := b.TotalW(); math.Abs(got-255.75) > 1e-9 {
		t.Errorf("srvr1 consumed = %gW, want 255.75W", got)
	}
	if math.Abs(b.CPUW-210*0.75) > 1e-9 {
		t.Errorf("srvr1 CPU consumed = %g", b.CPUW)
	}
	if math.Abs(b.SwitchW-0.75) > 1e-9 {
		t.Errorf("switch share = %g", b.SwitchW)
	}
}

func TestActivityFactorScalesLinearly(t *testing.T) {
	rack := platform.DefaultRack()
	s := platform.Desk()
	half, _ := NewModel(0.5)
	full, _ := NewModel(1.0)
	if got, want := half.ServerConsumed(s, rack).TotalW()*2, full.ServerConsumed(s, rack).TotalW(); math.Abs(got-want) > 1e-9 {
		t.Errorf("activity factor not linear: %g vs %g", got, want)
	}
}

func TestFlashPowerCounted(t *testing.T) {
	m := DefaultModel()
	rack := platform.DefaultRack()
	s := platform.Emb1()
	base := m.ServerConsumed(s, rack).TotalW()
	fl := platform.FlashCacheDevice()
	s.Flash = &fl
	b := m.ServerConsumed(s, rack)
	if math.Abs(b.FlashW-0.5*0.75) > 1e-9 {
		t.Errorf("flash consumed = %g", b.FlashW)
	}
	if math.Abs(b.TotalW()-(base+0.375)) > 1e-9 {
		t.Errorf("flash not added to total")
	}
}

// §3.2: srvr1 consumes 13.6 kW/rack (nameplate, 40 servers).
func TestRackNameplateMatchesPaper(t *testing.T) {
	rack := platform.DefaultRack()
	if got := RackNameplateW(platform.Srvr1(), rack); math.Abs(got-13600) > 1e-9 {
		t.Errorf("srvr1 rack nameplate = %gW, paper 13.6kW", got)
	}
	// emb1 must be dramatically lower (paper quotes 2.7 kW with its
	// provisioning; our leaner BoM gives ~2.1 kW — same order).
	if got := RackNameplateW(platform.Emb1(), rack); got > 3000 {
		t.Errorf("emb1 rack nameplate = %gW, want < 3kW", got)
	}
}

// The paper's sensitivity range: consumed power must scale exactly
// linearly in the activity factor across 0.5–1.0, for every platform,
// so the ablation benches' relative rankings cannot move with AF.
func TestActivityFactorSensitivityRange(t *testing.T) {
	rack := platform.DefaultRack()
	for _, s := range platform.All() {
		ref := Model{ActivityFactor: 1}.ServerConsumed(s, rack).TotalW()
		for i := 10; i <= 20; i++ {
			af := float64(i) / 20
			m, err := NewModel(af)
			if err != nil {
				t.Fatalf("NewModel(%g): %v", af, err)
			}
			got := m.ServerConsumed(s, rack).TotalW()
			if math.Abs(got-ref*af) > 1e-9 {
				t.Errorf("%s at AF %.2f: %g W, want %g W", s.Name, af, got, ref*af)
			}
		}
	}
}

func TestIdleFractionsValidate(t *testing.T) {
	if err := DefaultIdleFractions().Validate(); err != nil {
		t.Errorf("catalog idle fractions invalid: %v", err)
	}
	if err := staticIdle.Validate(); err != nil {
		t.Errorf("static idle fractions invalid: %v", err)
	}
	bad := DefaultIdleFractions()
	bad.Disk = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("disk idle fraction 1.5 accepted")
	}
	bad = DefaultIdleFractions()
	bad.CPU = -0.1
	if err := bad.Validate(); err == nil {
		t.Error("cpu idle fraction -0.1 accepted")
	}
}

// The degenerate case the energy plane pins: idle fractions all 1.0
// reproduce the static breakdown bit-for-bit at every utilization.
func TestAtStaticDegenerateBitExact(t *testing.T) {
	rack := platform.DefaultRack()
	for _, s := range platform.All() {
		b := DefaultModel().ServerConsumed(s, rack)
		for _, u := range []Utilizations{{}, {CPU: 0.37, Disk: 0.9, Switch: 1}, {CPU: 1, Memory: 1, Disk: 1, Board: 1, Fan: 1, Flash: 1, Switch: 1}} {
			if got := b.At(staticIdle, u); got != b {
				t.Errorf("%s: static degenerate At = %+v, want %+v", s.Name, got, b)
			}
		}
	}
}

func TestAtInterpolatesIdleToActive(t *testing.T) {
	b := Breakdown{CPUW: 100, MemoryW: 50, DiskW: 10}
	f := IdleFractions{CPU: 0.3, Memory: 0.7, Disk: 0.8, Board: 1, Fan: 1, Flash: 1, Switch: 1}
	// Zero utilization draws exactly the idle watts.
	at0 := b.At(f, Utilizations{})
	if math.Abs(at0.CPUW-30) > 1e-12 || math.Abs(at0.MemoryW-35) > 1e-12 || math.Abs(at0.DiskW-8) > 1e-12 {
		t.Errorf("idle draw = %+v", at0)
	}
	// Full utilization draws exactly the active watts.
	full := Utilizations{CPU: 1, Memory: 1, Disk: 1, Board: 1, Fan: 1, Flash: 1, Switch: 1}
	if at1 := b.At(f, full); at1 != b {
		t.Errorf("full-utilization draw = %+v, want %+v", at1, b)
	}
	// Halfway utilization lands exactly between.
	at5 := b.At(f, Utilizations{CPU: 0.5})
	if want := 100 * (0.3 + 0.7*0.5); math.Abs(at5.CPUW-want) > 1e-12 {
		t.Errorf("cpu at 50%% = %g, want %g", at5.CPUW, want)
	}
}

// staticIdle is the degenerate split (all 1.0): every component draws
// its active watts regardless of utilization, the static model's
// assumption.
var staticIdle = IdleFractions{CPU: 1, Memory: 1, Disk: 1, Board: 1, Fan: 1, Flash: 1, Switch: 1}
