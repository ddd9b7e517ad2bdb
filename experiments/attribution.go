package experiments

import (
	"errors"
	"fmt"

	"warehousesim/internal/cluster"
	"warehousesim/internal/core"
	"warehousesim/internal/obs/span"
)

func init() {
	register("ext-critpath", "Extension — critical-path latency attribution from causal spans", runExtCritpath)
}

// runExtCritpath traces every request of a short DES run per
// (design, workload) pair and reduces the span trees to the
// queue/service/remote-memory/disk attribution table — the span-layer
// answer to "where does a request's time go on this design". The
// remote-memory column makes the §3.4 trade visible end to end: the
// memory-blade designs (N2) trade cpu-service time for blade-swap
// stalls, which the analytic solver folds into a scalar slowdown but
// the spans keep attributable.
func runExtCritpath() (Report, error) {
	r := Report{ID: "ext-critpath", Title: "Extension — critical-path latency attribution from causal spans"}
	r.addf("share of traced request time per category (every request of a")
	r.addf("seed-9 DES run; shares of one row sum to 100%%):")
	r.addf("")
	r.addf("%-11s %-10s %8s %9s %13s %6s %10s", "design", "workload",
		"queue", "service", "remote-mem", "disk", "p95-ms")

	err := planeSweep(&r, func(_ core.Design, o *cluster.SimOptions) error {
		o.TraceEvery = 1
		return nil
	}, func(c *planeCell) (string, error) {
		attr := span.Analyze(c.sink)
		if attr.Requests == 0 {
			return "", errors.New("traced no completed requests")
		}
		shares := map[string]float64{}
		for _, row := range attr.Rows {
			shares[row.Category] = row.Share
		}
		return fmt.Sprintf("%-11s %-10s %7.1f%% %8.1f%% %12.1f%% %5.1f%% %10.2f",
			c.design.Name, c.profile.Name,
			shares[span.CatQueue]*100, shares[span.CatService]*100,
			shares[span.CatRemoteMem]*100, shares[span.CatDisk]*100,
			c.res.P95Latency*1e3), nil
	})
	if err != nil {
		return Report{}, err
	}
	r.addf("")
	r.addf("reading: queue share rises as the adaptive driver loads a design")
	r.addf("to its QoS edge; N2's remote-mem column is the memory-blade swap")
	r.addf("stall the blade designs accept in exchange for cheaper DRAM.")
	return r, nil
}
