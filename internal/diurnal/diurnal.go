// Package diurnal models the time-of-day load behavior the paper notes
// real deployments exhibit (§4: "in actual deployments, requests follow
// a time-of-day distribution, but we only study request distributions
// that focus on sustained performance"), together with the
// ensemble-level power-management opportunity (the paper builds on
// Ranganathan et al.'s ensemble power management): at off-peak hours an
// ensemble can consolidate load onto fewer servers and idle the rest.
package diurnal

import (
	"fmt"
	"math"
)

// Curve is the hourly load profile as a fraction of peak (index =
// hour-of-day, values in (0, 1]).
type Curve [24]float64

// TypicalInternet is a representative consumer-internet diurnal curve:
// a deep overnight trough and an evening peak.
func TypicalInternet() Curve {
	return Curve{
		0.55, 0.45, 0.38, 0.34, 0.32, 0.35, // 00-05
		0.42, 0.55, 0.68, 0.78, 0.84, 0.88, // 06-11
		0.90, 0.89, 0.87, 0.86, 0.88, 0.92, // 12-17
		0.96, 1.00, 1.00, 0.97, 0.85, 0.68, // 18-23
	}
}

// Validate reports nonsensical curves.
func (c Curve) Validate() error {
	for h, v := range c {
		if v <= 0 || v > 1 {
			return fmt.Errorf("diurnal: hour %d load %g outside (0,1]", h, v)
		}
	}
	return nil
}

// Mean returns the average load fraction.
func (c Curve) Mean() float64 {
	sum := 0.0
	for _, v := range c {
		sum += v
	}
	return sum / 24
}

// Peak returns the maximum load fraction.
func (c Curve) Peak() float64 {
	max := 0.0
	for _, v := range c {
		if v > max {
			max = v
		}
	}
	return max
}

// ServerPower is a linear utilization-to-power model: P(u) = Idle +
// (Peak-Idle)*u. Warehouse servers are notoriously non-energy-
// proportional; IdleW is typically well above half of PeakW.
type ServerPower struct {
	IdleW float64
	PeakW float64
}

// Validate reports nonsensical models.
func (p ServerPower) Validate() error {
	if p.IdleW < 0 || p.PeakW <= 0 || p.IdleW > p.PeakW {
		return fmt.Errorf("diurnal: invalid server power idle=%g peak=%g", p.IdleW, p.PeakW)
	}
	return nil
}

// At returns power at utilization u (clamped to [0,1]).
func (p ServerPower) At(u float64) float64 {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return p.IdleW + (p.PeakW-p.IdleW)*u
}

// Policy selects how the ensemble follows the load curve.
type Policy int

// Power-management policies.
const (
	// AllOn keeps every server powered; load spreads evenly.
	AllOn Policy = iota
	// Consolidate packs load onto the fewest servers that can carry it
	// (at the target utilization) and powers the rest off.
	Consolidate
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case AllOn:
		return "all-on"
	case Consolidate:
		return "consolidate"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// EnergyKWhPerDay returns the ensemble's daily energy for n servers
// provisioned for peak (peak load occupies all n at targetUtil).
//
// Under AllOn every server runs at curve(h)*targetUtil utilization.
// Under Consolidate only ceil(n*curve(h)) servers run (at targetUtil),
// and idle servers draw zero (powered off; the model ignores transition
// energy, which amortizes over hour-scale shifts).
func EnergyKWhPerDay(n int, sp ServerPower, c Curve, pol Policy, targetUtil float64) (float64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("diurnal: need servers > 0")
	}
	if err := sp.Validate(); err != nil {
		return 0, err
	}
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if targetUtil <= 0 || targetUtil > 1 {
		return 0, fmt.Errorf("diurnal: target utilization %g outside (0,1]", targetUtil)
	}
	totalWh := 0.0
	for _, load := range c {
		switch pol {
		case AllOn:
			u := load * targetUtil
			totalWh += float64(n) * sp.At(u)
		case Consolidate:
			active := int(math.Ceil(float64(n) * load))
			if active > n {
				active = n
			}
			if active < 1 {
				active = 1
			}
			// The active servers absorb the whole load at ~targetUtil.
			u := load * float64(n) / float64(active) * targetUtil
			totalWh += float64(active) * sp.At(u)
		default:
			return 0, fmt.Errorf("diurnal: unknown policy %v", pol)
		}
	}
	return totalWh / 1e3, nil
}

// SavingsFraction returns consolidation's daily-energy saving over
// all-on for the same fleet and curve.
func SavingsFraction(n int, sp ServerPower, c Curve, targetUtil float64) (float64, error) {
	allOn, err := EnergyKWhPerDay(n, sp, c, AllOn, targetUtil)
	if err != nil {
		return 0, err
	}
	cons, err := EnergyKWhPerDay(n, sp, c, Consolidate, targetUtil)
	if err != nil {
		return 0, err
	}
	if allOn == 0 {
		return 0, nil
	}
	return 1 - cons/allOn, nil
}
