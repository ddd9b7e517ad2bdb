package energy

import (
	"fmt"

	"warehousesim/internal/cooling"
	"warehousesim/internal/cost"
)

// Rollup joins the measured time-resolved energy with the burdened
// power-and-cooling cost model: what the run's mean draw costs over the
// depreciation cycle versus what the static activity-factor model
// charges, under the packaging design's room-cooling factor. This is
// the "dynamic TCO" number the ROADMAP's energy-proportionality
// direction asks for — the static model charges every design its flat
// activity-factor watts, so designs that idle well are indistinguishable
// from designs that don't until the measured curve is priced.
type Rollup struct {
	// MeanW and StaticW are the measured and static per-server draws;
	// Joules integrates the measured draw over the run.
	MeanW   float64 `json:"mean_watts"`
	StaticW float64 `json:"static_watts"`
	Joules  float64 `json:"joules"`
	SpanSec float64 `json:"span_sec"`
	// BurdenMultiplier is the effective burdened-dollars-per-IT-dollar
	// factor after the enclosure's room-cooling credit is applied to the
	// cooling terms (L1, K2).
	BurdenMultiplier float64 `json:"burden_multiplier"`
	RoomFactor       float64 `json:"room_cooling_factor"`
	// MeasuredUSD and StaticUSD are burdened P&C dollars per server over
	// the depreciation cycle, extrapolating each draw steady-state.
	MeasuredUSD float64 `json:"measured_usd"`
	StaticUSD   float64 `json:"static_usd"`
	// SavingsUSD is StaticUSD - MeasuredUSD (positive when the measured
	// draw undercuts the static provisioning estimate).
	SavingsUSD  float64 `json:"savings_usd"`
	SavingsFrac float64 `json:"savings_frac"`
}

// TCO prices the collector's measured energy under the burdened
// power-and-cooling model, with the packaging enclosure's room-cooling
// factor scaling the cooling terms (the same second-order credit
// core.Evaluator.EnclosureCoolingCredit applies; pass
// cooling.EnclosureFor(cooling.Conventional) for the paper's fixed
// factors). Call once the source is sealed and merged.
func (c *Collector) TCO(pc cost.PCParams, enc cooling.Enclosure) (Rollup, error) {
	if err := pc.Validate(); err != nil {
		return Rollup{}, err
	}
	f := enc.RoomCoolingFactor()
	pc.L1 *= f
	pc.K2 *= f
	t := c.Totals()
	r := Rollup{
		MeanW: t.MeanW, StaticW: t.StaticW,
		Joules: t.Joules, SpanSec: t.SpanSec,
		BurdenMultiplier: pc.BurdenMultiplier(),
		RoomFactor:       f,
		MeasuredUSD:      pc.BurdenedUSD(t.MeanW),
		StaticUSD:        pc.BurdenedUSD(t.StaticW),
	}
	r.SavingsUSD = r.StaticUSD - r.MeasuredUSD
	if r.StaticUSD > 0 {
		r.SavingsFrac = r.SavingsUSD / r.StaticUSD
	}
	return r, nil
}

// String renders the rollup as a one-line summary.
func (r Rollup) String() string {
	return fmt.Sprintf("mean %.1f W vs static %.1f W; burdened P&C $%.0f vs $%.0f (%.0f%% saved)",
		r.MeanW, r.StaticW, r.MeasuredUSD, r.StaticUSD, r.SavingsFrac*100)
}
