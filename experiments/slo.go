package experiments

import (
	"errors"
	"fmt"

	"warehousesim/internal/cluster"
	"warehousesim/internal/core"
	"warehousesim/internal/obs/window"
)

func init() {
	register("ext-slo", "Extension — windowed QoS-violation accounting per design", runExtSLO)
}

// runExtSLO runs each (design, workload) pair under the windowed SLO
// metrics plane and reports QoS-violation-minutes: how much of the
// measured interval each design spends inside a violation episode, how
// many distinct episodes that time splits into, and how far the worst
// window's tail latency overshoots the bound. The adaptive driver
// holds every design at its own QoS edge, so the mean utilization
// columns of the paper hide this structure — two designs with the same
// sustained throughput can differ sharply in how their violations
// cluster, which is what an operator's burn-rate alerting sees.
func runExtSLO() (Report, error) {
	r := Report{ID: "ext-slo", Title: "Extension — windowed QoS-violation accounting per design"}
	const windowSec = 2.0
	r.addf("QoS-violation accounting over %gs tumbling windows (seed-9 DES", windowSec)
	r.addf("run at each design's adaptive operating point):")
	r.addf("")
	r.addf("%-11s %-10s %8s %10s %9s %10s %11s", "design", "workload",
		"windows", "violating", "episodes", "viol-min", "peak-exc-ms")

	err := planeSweep(&r, func(_ core.Design, o *cluster.SimOptions) error {
		o.SLOWindowSec = windowSec
		return nil
	}, func(c *planeCell) (string, error) {
		res := &c.res
		if res.SLO == nil {
			return "", errors.New("returned no SLO collector")
		}
		sealed, violating := res.SLO.Counts()
		eps := res.SLO.Episodes(res.SLOParts...)
		peakExcess := 0.0
		for _, e := range eps {
			if e.PeakExcessSec > peakExcess {
				peakExcess = e.PeakExcessSec
			}
		}
		return fmt.Sprintf("%-11s %-10s %8d %10d %9d %10.2f %11.1f",
			c.design.Name, c.profile.Name, sealed, violating, len(eps),
			window.ViolationSec(eps)/60, peakExcess*1e3), nil
	})
	if err != nil {
		return Report{}, err
	}
	r.addf("")
	r.addf("reading: viol-min is the wall an operator's error budget burns;")
	r.addf("many short episodes and one long one can carry the same mean")
	r.addf("latency while tripping very different burn-rate alerts. peak-exc")
	r.addf("is the worst window's tail overshoot past the workload's bound.")
	return r, nil
}
