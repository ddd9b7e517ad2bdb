package experiments

import (
	"fmt"

	"warehousesim/internal/cluster"
	"warehousesim/internal/core"
	"warehousesim/internal/fanout"
	"warehousesim/internal/obs"
	"warehousesim/internal/platform"
	"warehousesim/internal/workload"
)

func init() {
	register("ext-fleet", "Extension — warehouse-scale hybrid fleet Perf/TCO", runExtFleet)
}

// fleetCell is one point of the ext-fleet sweep: a fleet shape
// evaluated for one design on one profile under one balancer policy.
type fleetCell struct {
	design   core.Design
	profile  workload.Profile
	topo     cluster.FleetTopology
	seed     uint64
	cfg      cluster.Config
	tcoUSD   float64 // per server, from the evaluator
	res      cluster.Result
	sloViol  int
	sloTotal int
}

// fleetShapes returns the fleet configurations the sweep covers: the
// RunSpec.Fleet override when one was passed (whbench -racks ...), else
// the default warehouse-scale ladder. Every shape keeps the hot set
// small — the point of the hybrid is that DES cost scales with the hot
// set while fleet size rides the analytic stand-in for free.
func fleetShapes() []cluster.FleetTopology {
	if fleetOverride != nil {
		t := *fleetOverride
		t.HotSet = append([]int(nil), fleetOverride.HotSet...)
		t.Rack.Boards = append([]int(nil), fleetOverride.Rack.Boards...)
		if t.Rack.Enclosures == 0 {
			t.Rack = defaultFleetRack()
		}
		return []cluster.FleetTopology{t}
	}
	rack := defaultFleetRack()
	return []cluster.FleetTopology{
		{Racks: 100, HotRacks: 2, Rack: rack},
		{Racks: 200, HotRacks: 2, Rack: rack},
		{Racks: 400, HotRacks: 2, Rack: rack},
	}
}

// defaultFleetRack is the per-rack template of the default sweep: a
// small rack on one event heap so each hot rack's DES stays cheap. The
// sweep's parallelism comes from running hot racks and cells across
// the worker pool, not from sharding inside a rack.
func defaultFleetRack() cluster.ShardedTopology {
	return cluster.ShardedTopology{Enclosures: 2, BoardsPerEnclosure: 2}
}

// runExtFleet scales the paper's Perf/TCO comparison from one server to
// a warehouse floor: fleets of hundreds of racks, a few hot racks under
// full DES, the cold remainder on the analytic stand-in, under both
// balancer policies. The table reports fleet throughput, fleet-level
// Perf/TCO (3-year, every server in every rack priced), and the QoS
// picture — per-rack violations plus windowed violation counts from the
// hot racks' SLO plane.
func runExtFleet() (Report, error) {
	r := Report{ID: "ext-fleet", Title: "Extension — warehouse-scale hybrid fleet Perf/TCO"}
	designs := []core.Design{
		core.BaselineDesign(platform.Desk()),
		core.BaselineDesign(platform.Emb1()),
		core.NewN2(),
	}
	profiles := []workload.Profile{
		workload.WebsearchProfile(),
		workload.WebmailProfile(),
	}
	balancers := []string{cluster.BalancerWRR, cluster.BalancerLeastLoaded}
	shapes := fleetShapes()
	ev := core.NewEvaluator()

	// The evaluator caches flash hit rates in a map, so every call into
	// it stays on this goroutine; only the fleet runs fan out.
	cells := make([]fleetCell, 0, len(shapes)*len(designs)*len(profiles)*len(balancers))
	for _, shape := range shapes {
		for _, d := range designs {
			for _, p := range profiles {
				cfg, err := ev.ClusterConfig(d, p)
				if err != nil {
					return Report{}, err
				}
				ms, err := ev.Evaluate(d, []workload.Profile{p})
				if err != nil {
					return Report{}, err
				}
				for _, b := range balancers {
					t := shape
					t.HotSet = append([]int(nil), shape.HotSet...)
					t.Rack.Boards = append([]int(nil), shape.Rack.Boards...)
					t.Balancer = b
					cells = append(cells, fleetCell{design: d, profile: p, topo: t, seed: 11, cfg: cfg, tcoUSD: ms[0].TCOUSD})
				}
			}
		}
	}

	i, err := fanout.Ordered(SweepParallelism(), len(cells), func(_, i int) (err error) {
		c := &cells[i]
		topo := c.topo
		sink := obs.NewSink()
		opts := cluster.SimOptions{
			Seed: c.seed, WarmupSec: 5, MeasureSec: 20, MaxClients: 512,
			Obs: sink, SLOWindowSec: 2, Topology: &topo,
		}
		if c.res, err = c.cfg.Simulate(workload.FixedGenerator{P: c.profile}, opts); err == nil && c.res.SLO != nil {
			c.sloTotal, c.sloViol = c.res.SLO.Counts()
		}
		return err
	}, nil)
	if err != nil {
		c := &cells[i]
		return Report{}, fmt.Errorf("ext-fleet: %s/%s racks=%d %s: %w",
			c.design.Name, c.profile.Name, c.topo.Racks, c.topo.Balancer, err)
	}

	r.addf("hybrid fleet sweep: hot racks on full rack DES, cold racks on")
	r.addf("the analytic M/M/m stand-in at the balancer's operating point;")
	r.addf("Perf/TCO prices every server in every rack over 3 years (seed-11")
	r.addf("runs; exports are byte-identical at any -par/hot-set order):")
	r.addf("")
	r.addf("%-7s %-10s %6s %4s %-12s %11s %8s %10s %9s %9s", "design", "workload",
		"racks", "hot", "balancer", "fleet-rps", "qos-ok", "viol-rk", "slo-wnd", "perf/M$")
	for i := range cells {
		c := &cells[i]
		fb := c.res.Fleet
		if fb == nil {
			return Report{}, fmt.Errorf("ext-fleet: %s/%s returned no fleet breakdown", c.design.Name, c.profile.Name)
		}
		violRacks := 0
		for _, fr := range fb.RackResults {
			if !fr.QoSMet {
				violRacks++
			}
		}
		fleetTCO := c.tcoUSD * float64(c.topo.Rack.TotalBoards()) * float64(fb.Racks)
		perfPerMegaUSD := 0.0
		if fleetTCO > 0 {
			perfPerMegaUSD = c.res.Throughput / fleetTCO * 1e6
		}
		r.addf("%-7s %-10s %6d %4d %-12s %11.4g %8v %8d %6d/%-3d %9.4g",
			c.design.Name, c.profile.Name, fb.Racks, len(fb.HotIDs), fb.Balancer,
			c.res.Throughput, c.res.QoSMet, violRacks, c.sloViol, c.sloTotal,
			perfPerMegaUSD)
	}
	r.addf("")
	r.addf("reading: fleet-rps scales linearly with racks while DES cost stays")
	r.addf("fixed at the hot set — the hybrid's point. perf/M$ is fleet rps per")
	r.addf("million TCO dollars, so the paper's per-server efficiency ordering")
	r.addf("must (and does) survive the jump to warehouse scale. viol-rk counts")
	r.addf("racks whose own QoS failed; slo-wnd the hot racks' violating/total")
	r.addf("SLO windows. wrr and least-loaded agree on homogeneous fleets at")
	r.addf("steady state — divergence appears once racks saturate and")
	r.addf("least-loaded leaves excess demand unserved instead of overloading.")
	return r, nil
}
