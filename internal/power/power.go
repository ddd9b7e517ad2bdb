// Package power implements the paper's power model (§2.2).
//
// Component powers come from the platform catalog (maximum operational
// power from spec sheets and vendor calculators). Because actual
// consumption is documented to run below worst case (Fan et al.), the
// model applies an activity factor — 0.75 by default, with the paper's
// sensitivity range 0.5–1.0 available for the ablation benches.
package power

import (
	"fmt"

	"warehousesim/internal/platform"
)

// DefaultActivityFactor is the paper's default scaling from maximum
// operational power to expected consumption.
const DefaultActivityFactor = 0.75

// Breakdown itemizes consumed watts by the paper's cost-model categories.
type Breakdown struct {
	CPUW    float64
	MemoryW float64
	DiskW   float64
	BoardW  float64
	FanW    float64
	FlashW  float64
	SwitchW float64 // per-server share of rack switch power
}

// TotalW sums all categories.
func (b Breakdown) TotalW() float64 {
	return b.CPUW + b.MemoryW + b.DiskW + b.BoardW + b.FanW + b.FlashW + b.SwitchW
}

// IdleFractions is the idle/active power split per component class: the
// fraction of a class's active watts it still draws at zero
// utilization. The utilization-conditioned power model interpolates
// linearly between idle and active (Breakdown.At); all fractions at 1.0
// collapse it to the static model exactly, which is the degenerate case
// the energy telemetry tests pin bit-for-bit.
type IdleFractions struct {
	CPU    float64
	Memory float64
	Disk   float64
	Board  float64
	Fan    float64
	Flash  float64
	Switch float64
}

// DefaultIdleFractions returns the platform catalog's idle-power table
// (platform.ComponentIdleFractions) as a typed split.
func DefaultIdleFractions() IdleFractions {
	f := platform.ComponentIdleFractions()
	return IdleFractions{
		CPU:    f["cpu"],
		Memory: f["memory"],
		Disk:   f["disk"],
		Board:  f["board"],
		Fan:    f["fan"],
		Flash:  f["flash"],
		Switch: f["switch"],
	}
}

// Validate reports fractions outside [0,1].
func (f IdleFractions) Validate() error {
	for _, v := range [...]struct {
		name string
		frac float64
	}{
		{"cpu", f.CPU}, {"memory", f.Memory}, {"disk", f.Disk}, {"board", f.Board},
		{"fan", f.Fan}, {"flash", f.Flash}, {"switch", f.Switch},
	} {
		if v.frac < 0 || v.frac > 1 {
			return fmt.Errorf("power: %s idle fraction %g outside [0,1]", v.name, v.frac)
		}
	}
	return nil
}

// Utilizations carries per-class utilization in [0,1] for the
// utilization-conditioned power model. Classes with no measured driver
// default to 0 (idle draw only).
type Utilizations struct {
	CPU    float64
	Memory float64
	Disk   float64
	Board  float64
	Fan    float64
	Flash  float64
	Switch float64
}

// At returns the utilization-conditioned breakdown: each class draws
// active * (idle + (1-idle)*util). With an idle fraction of 1.0 the
// utilization term vanishes and the class reproduces its static watts
// bit-exactly (active * 1.0); with 0.0 the class is perfectly
// energy-proportional.
func (b Breakdown) At(f IdleFractions, u Utilizations) Breakdown {
	scale := func(active, idle, util float64) float64 {
		return active * (idle + (1-idle)*util)
	}
	return Breakdown{
		CPUW:    scale(b.CPUW, f.CPU, u.CPU),
		MemoryW: scale(b.MemoryW, f.Memory, u.Memory),
		DiskW:   scale(b.DiskW, f.Disk, u.Disk),
		BoardW:  scale(b.BoardW, f.Board, u.Board),
		FanW:    scale(b.FanW, f.Fan, u.Fan),
		FlashW:  scale(b.FlashW, f.Flash, u.Flash),
		SwitchW: scale(b.SwitchW, f.Switch, u.Switch),
	}
}

// Model computes consumed power for servers and racks.
type Model struct {
	// ActivityFactor scales maximum operational power to expected power
	// (0.5–1.0; the paper's results are qualitatively similar across the
	// range, which the ablation bench verifies).
	ActivityFactor float64
}

// NewModel returns a model with the given activity factor.
func NewModel(activityFactor float64) (Model, error) {
	if activityFactor <= 0 || activityFactor > 1 {
		return Model{}, fmt.Errorf("power: activity factor %g outside (0,1]", activityFactor)
	}
	return Model{ActivityFactor: activityFactor}, nil
}

// DefaultModel returns the paper's default model (activity factor 0.75).
func DefaultModel() Model {
	return Model{ActivityFactor: DefaultActivityFactor}
}

// ServerConsumed returns the per-server consumed-power breakdown
// including the rack-switch share, all scaled by the activity factor.
func (m Model) ServerConsumed(s platform.Server, rack platform.Rack) Breakdown {
	af := m.ActivityFactor
	b := Breakdown{
		CPUW:    s.CPU.PowerW * af,
		MemoryW: s.Memory.PowerW * af,
		DiskW:   s.Disk.PowerW * af,
		BoardW:  s.BoardPowerW * af,
		FanW:    s.FanPowerW * af,
		SwitchW: rack.SwitchPowerPerServerW() * af,
	}
	if s.Flash != nil {
		b.FlashW = s.Flash.PowerW * af
	}
	return b
}

// RackNameplateW returns the rack's maximum operational (nameplate-style)
// power without the activity factor — the figure quoted in §3.2's
// "13.6 kW/rack" comparison.
func RackNameplateW(s platform.Server, rack platform.Rack) float64 {
	return s.MaxPowerW() * float64(rack.ServersPerRack)
}
