package experiments

import (
	"errors"
	"fmt"

	"warehousesim/internal/cluster"
	"warehousesim/internal/core"
	"warehousesim/internal/obs/energy"
	"warehousesim/internal/power"
)

func init() {
	register("ext-energy", "Extension — time-resolved energy: joules/request and proportionality per design", runExtEnergy)
}

// runExtEnergy runs each (design, workload) pair under the
// utilization-conditioned energy plane and tabulates what the paper's
// static activity-factor wattage hides: the energy actually spent per
// completed request and the design's energy-proportionality slope (how
// many watts move per unit of cpu utilization; a static model's slope
// is 0 and a perfectly proportional server's intercept is 0). Designs
// with the same static watts separate once draw follows the measured
// utilization timeline — the low-power platforms spend fewer joules
// per request both because they draw less and because the adaptive
// driver holds them at higher utilization.
func runExtEnergy() (Report, error) {
	r := Report{ID: "ext-energy", Title: "Extension — time-resolved energy: joules/request and proportionality per design"}
	const windowSec = 2.0
	r.addf("utilization-conditioned power over %gs tumbling windows (seed-9 DES", windowSec)
	r.addf("run at each design's adaptive operating point; idle/active split")
	r.addf("from the platform catalog):")
	r.addf("")
	r.addf("%-11s %-10s %9s %8s %8s %9s %11s %10s", "design", "workload",
		"static-W", "mean-W", "J/req", "req/J", "slope-W/u", "intcpt-W")

	ev := core.NewEvaluator()
	err := planeSweep(&r, func(d core.Design, o *cluster.SimOptions) error {
		pb, err := ev.PowerBreakdown(d)
		if err != nil {
			return err
		}
		o.Energy = &energy.Config{
			WidthSec: windowSec,
			Model:    energy.Model{Active: pb, Idle: power.DefaultIdleFractions()},
		}
		return nil
	}, func(c *planeCell) (string, error) {
		if c.res.Energy == nil {
			return "", errors.New("returned no energy collector")
		}
		t := c.res.Energy.Totals()
		prop := c.res.Energy.Proportionality()
		return fmt.Sprintf("%-11s %-10s %9.1f %8.1f %8.3f %9.3f %11.1f %10.1f",
			c.design.Name, c.profile.Name, t.StaticW, t.MeanW,
			t.JoulesPerRequest, t.PerfPerWatt,
			prop.SlopeWPerUtil, prop.InterceptW), nil
	})
	if err != nil {
		return Report{}, err
	}
	r.addf("")
	r.addf("reading: static-W is what the paper's flat activity-factor model")
	r.addf("charges regardless of load; mean-W follows the run's utilization")
	r.addf("timeline. slope-W/u is the least-squares watts-vs-cpu-utilization")
	r.addf("fit across windows — the fraction of the draw that is actually")
	r.addf("load-proportional — and intcpt-W is the fixed floor paid at idle.")
	return r, nil
}
