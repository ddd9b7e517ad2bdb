package cluster

import (
	"fmt"
	"math"
	"sort"

	"warehousesim/internal/fanout"
	"warehousesim/internal/obs"
	"warehousesim/internal/stats"
	"warehousesim/internal/workload"
)

// Balancer policies for the fleet's load-balancer tier. Both are
// deterministic: routing is a pure function of the normalized topology
// and the demand, never of goroutine scheduling, so fleet exports stay
// byte-identical at every shard and worker count.
const (
	// BalancerWRR routes demand in capacity-weighted proportions — the
	// classic weighted round-robin at steady state. With a homogeneous
	// rack template every rack receives an equal share.
	BalancerWRR = "wrr"
	// BalancerLeastLoaded routes demand one quantum at a time to the
	// cold rack with the least assigned load, ties broken by lowest
	// rack id, each rack capped at its QoS-feasible operating point;
	// demand no rack can absorb is left unserved (and reported).
	BalancerLeastLoaded = "least-loaded"
)

// fleetDemandQuanta is the routing granularity of the least-loaded
// policy: each cold rack's fair share of demand is split into this many
// quanta before the greedy assignment. Fixed, so routing is reproducible.
const fleetDemandQuanta = 16

// maxFleetRacks bounds the fleet size. The normalized topology and the
// per-rack breakdown are materialized per rack, so a larger fleet would
// exhaust memory before it ran.
const maxFleetRacks = 1 << 20

// FleetTopology scales the unit of simulation from one rack to a fleet
// of Racks identical racks behind a load-balancer tier. The HotRacks
// racks under study run the full rack DES (rack.go, unchanged as the
// per-rack engine); the remaining cold racks are stood in by the
// analytic M/M/m solver (analytic.go) evaluated at the operating point
// the balancer routes to them. Cold racks never enter the event stream:
// their steady-state behaviour is a closed form, so simulating them
// event-by-event would buy nothing but wall-clock (DESIGN.md §12).
type FleetTopology struct {
	// Racks is the fleet size (>= 1).
	Racks int
	// HotRacks is the number of racks simulated with full DES; 0 with
	// an empty HotSet means a fully analytic fleet. When HotSet is set,
	// HotRacks must be 0 (it is derived) or equal to len(HotSet).
	HotRacks int
	// HotSet optionally names the hot rack ids (each in [0, Racks),
	// no duplicates). Empty means racks 0..HotRacks-1. Normalize sorts
	// it ascending: the hot set is a set, so any ordering of the same
	// ids yields byte-identical results.
	HotSet []int
	// Rack is the per-rack topology template; every rack in the fleet
	// is an instance of it. Its defaults are filled by Normalize.
	Rack ShardedTopology
	// Balancer selects the routing policy: BalancerWRR ("" or "wrr")
	// or BalancerLeastLoaded.
	Balancer string
}

// Normalize implements Topology: it validates the fleet shape and fills
// defaulted fields in place (SimOptions.Normalize calls it on a clone).
func (t *FleetTopology) Normalize() error {
	if t.Racks < 1 {
		return fmt.Errorf("cluster: fleet needs at least one rack, got %d", t.Racks)
	}
	if t.Racks > maxFleetRacks {
		return fmt.Errorf("cluster: fleet of %d racks exceeds the %d-rack limit", t.Racks, maxFleetRacks)
	}
	if t.HotRacks < 0 {
		return fmt.Errorf("cluster: negative hot rack count %d", t.HotRacks)
	}
	if t.HotRacks > t.Racks {
		return fmt.Errorf("cluster: %d hot racks exceed fleet size %d", t.HotRacks, t.Racks)
	}
	if len(t.HotSet) > 0 {
		if t.HotRacks != 0 && t.HotRacks != len(t.HotSet) {
			return fmt.Errorf("cluster: hot-racks %d disagrees with hot-set size %d", t.HotRacks, len(t.HotSet))
		}
		if len(t.HotSet) > t.Racks {
			return fmt.Errorf("cluster: hot set of %d racks exceeds fleet size %d", len(t.HotSet), t.Racks)
		}
		seen := make(map[int]bool, len(t.HotSet))
		for _, id := range t.HotSet {
			if id < 0 || id >= t.Racks {
				return fmt.Errorf("cluster: hot rack id %d outside fleet [0, %d)", id, t.Racks)
			}
			if seen[id] {
				return fmt.Errorf("cluster: duplicate hot rack id %d", id)
			}
			seen[id] = true
		}
		sort.Ints(t.HotSet)
		t.HotRacks = len(t.HotSet)
	} else {
		t.HotSet = make([]int, t.HotRacks)
		for i := range t.HotSet {
			t.HotSet[i] = i
		}
	}
	switch t.Balancer {
	case "":
		t.Balancer = BalancerWRR
	case BalancerWRR, BalancerLeastLoaded:
	default:
		return fmt.Errorf("cluster: unknown balancer policy %q (want %q or %q)", t.Balancer, BalancerWRR, BalancerLeastLoaded)
	}
	if err := t.Rack.Normalize(); err != nil {
		return fmt.Errorf("cluster: fleet rack template: %w", err)
	}
	return nil
}

// clone implements Topology with a deep copy.
func (t *FleetTopology) clone() Topology {
	c := *t
	c.HotSet = append([]int(nil), t.HotSet...)
	c.Rack.Boards = append([]int(nil), t.Rack.Boards...)
	return &c
}

// FleetBreakdown is the per-rack detail behind a fleet Result.
type FleetBreakdown struct {
	// Racks, HotIDs, and Balancer echo the normalized topology.
	Racks    int
	HotIDs   []int
	Balancer string
	// PerRackDemand is the balancer's demand estimate per rack
	// (requests/second): the mean measured hot-rack throughput, or the
	// analytic QoS-feasible rack throughput when no rack is hot.
	PerRackDemand float64
	// ColdDemand is the total demand routed to cold racks; ColdUnserved
	// is the part no cold rack could absorb within its capacity (only
	// the least-loaded policy caps racks, so only it can leave demand
	// unserved). Unserved demand marks the fleet QoS-violating.
	ColdDemand   float64
	ColdUnserved float64
	// RackResults holds one summary per rack, id-ascending.
	RackResults []FleetRack
}

// FleetRack is one rack's contribution to the fleet result.
type FleetRack struct {
	ID  int
	Hot bool
	// Throughput is the rack's served rate: measured (hot) or assigned
	// by the balancer (cold).
	Throughput float64
	// MeanLatency and P95Latency are +Inf for a saturated cold rack.
	MeanLatency, P95Latency float64
	QoSMet                  bool
	Utilization             map[string]float64
	// Clients is the rack's closed-loop population (hot racks only).
	Clients int
}

// fleetUtilKeys is the fixed station-key order every fleet aggregation
// and bottleneckOf iterate — never the maps themselves — so exports
// cannot pick up Go's randomized map order.
var fleetUtilKeys = [...]string{"cpu", "disk", "net", "memblade"}

// fleetRackSeed derives one rack's root seed from the run seed: a pure
// function of (root, rack id), so a rack's entire trajectory is
// independent of which other racks are hot, of hot-set ordering, and of
// the worker count running the hot set.
func fleetRackSeed(root uint64, rack int) uint64 {
	return stats.EntitySeed(root, rack, 0)
}

// simulate implements Topology: hot racks on the full rack DES, cold
// racks on the analytic stand-in, one merged Result.
func (t *FleetTopology) simulate(c Config, gen workload.Generator, p workload.Profile, opt SimOptions) (Result, error) {
	if p.Batch {
		return Result{}, fmt.Errorf("cluster: the fleet model balances an interactive arrival stream across racks; batch profile %s has none (run the rack topology directly)", p.Name)
	}
	if opt.TraceEvery > 0 {
		return Result{}, fmt.Errorf("cluster: span tracing is per-rack (span ids are derived from enclosure indices and would collide across racks); run the rack topology directly to trace")
	}
	if opt.ShardDiag != nil {
		return Result{}, fmt.Errorf("cluster: shard diagnostics describe one rack's engine; run the rack topology directly to collect them")
	}
	if len(t.HotSet) > 0 && !workload.IsStateless(gen) {
		return Result{}, fmt.Errorf("cluster: hot racks sample the generator concurrently and need workload.IsStateless; %T is stateful", gen)
	}

	// Hot racks: one full rack DES each, every rack seeded from its id
	// alone and recording into a private part, fanned across the
	// fleet's workers. Per-rack results land by index, parts fold in id
	// order, and the first error in id order wins — nothing about the
	// outcome depends on scheduling.
	hot := make([]Result, len(t.HotSet))
	parts := make([]part, len(t.HotSet))
	i, err := fanout.Ordered(opt.Parallelism, len(t.HotSet), func(_, i int) (err error) {
		hot[i], parts[i], err = t.runHotRack(c, gen, p, opt, i)
		return err
	}, nil)
	if err != nil {
		return Result{}, fmt.Errorf("cluster: fleet hot rack %d: %w", t.HotSet[i], err)
	}

	// The balancer's demand model: every rack in the fleet faces the
	// same offered load per rack — the mean load the hot racks actually
	// sustained, or (fully analytic fleets) the QoS-feasible operating
	// point of the template. Cold racks then absorb the residual demand
	// under the routing policy.
	boards := t.Rack.TotalBoards()
	ana, err := c.Analyze(p)
	if err != nil {
		return Result{}, err
	}
	rackCap := ana.Throughput * float64(boards)
	perRack := rackCap
	if len(t.HotSet) > 0 {
		sum := 0.0
		for _, h := range hot {
			sum += h.Throughput
		}
		perRack = sum / float64(len(t.HotSet))
	}

	isHot := make(map[int]bool, len(t.HotSet))
	for _, id := range t.HotSet {
		isHot[id] = true
	}
	cold := make([]int, 0, t.Racks-len(t.HotSet))
	for id := 0; id < t.Racks; id++ {
		if !isHot[id] {
			cold = append(cold, id)
		}
	}

	assigned, unserved := t.routeCold(len(cold), perRack, rackCap)
	coldRes := make([]Result, len(cold))
	for i := range cold {
		lam := 0.0
		if boards > 0 {
			lam = assigned[i] / float64(boards)
		}
		r, err := c.AnalyzeAt(p, lam)
		if err != nil {
			return Result{}, fmt.Errorf("cluster: fleet cold rack %d: %w", cold[i], err)
		}
		// AnalyzeAt is per-server; the rack serves boards times its rate.
		r.Throughput = assigned[i]
		r.Perf = assigned[i]
		coldRes[i] = r
	}

	bd := &FleetBreakdown{
		Racks:         t.Racks,
		HotIDs:        append([]int(nil), t.HotSet...),
		Balancer:      t.Balancer,
		PerRackDemand: perRack,
		ColdDemand:    perRack * float64(len(cold)),
		ColdUnserved:  unserved,
	}
	res := t.assemble(bd, hot, coldRes)

	// Fold the hot racks' parts, rack id ascending. The racks already
	// emitted their episode and energy totals into their own sinks, so
	// the fleet folds without re-emitting — re-emission would duplicate
	// streams and break the manual-composition byte-identity contract.
	// Cold racks have no event stream and so no parts.
	if err := fold(opt.Obs, &res, 0, false, parts...); err != nil {
		return Result{}, err
	}
	if opt.Obs != nil {
		t.emitFleet(opt.Obs, res.Fleet)
	}
	return res, nil
}

// runHotRack runs one hot rack's full DES with a rack-scoped seed; i
// indexes the (sorted) hot set. A recorded fleet gives the rack a
// private sink, and the rack comes back as the fleet's part: that sink
// with the rack's folded collector and energy view.
func (t *FleetTopology) runHotRack(c Config, gen workload.Generator, p workload.Profile, opt SimOptions, i int) (Result, part, error) {
	ro := opt
	ro.Seed = fleetRackSeed(opt.Seed, t.HotSet[i])
	ro.Topology = nil
	ro.Parallelism = 1
	// The live hook is per-run: concurrently running racks would race
	// on it, so fleet runs don't publish live handles.
	ro.OnProbeTick = nil
	var pt part
	if opt.Obs != nil {
		pt.rec = obs.NewSink()
	}
	ro.Obs = pt.rec
	rack := t.Rack
	rack.Boards = append([]int(nil), t.Rack.Boards...)
	res, err := rack.simulate(c, gen, p, ro)
	pt.win, pt.slo, pt.en = res.SLO, res.SLO != nil, res.Energy
	if res.Energy != nil {
		pt.win = res.Energy.Source()
	}
	return res, pt, err
}

// routeCold distributes the cold racks' aggregate demand (perRack times
// the cold count) under the balancer policy. Returns the per-cold-rack
// assignment (index-aligned with the ascending cold id list) and the
// demand left unserved.
func (t *FleetTopology) routeCold(n int, perRack, rackCap float64) (assigned []float64, unserved float64) {
	assigned = make([]float64, n)
	if n == 0 || perRack <= 0 {
		return assigned, 0
	}
	total := perRack * float64(n)
	switch t.Balancer {
	case BalancerLeastLoaded:
		// Greedy quantized routing: fixed quantum count, least-assigned
		// rack first, lowest id on ties, capped at the rack's
		// QoS-feasible point. The residue smaller than one quantum is
		// routed last so the total always adds up.
		nq := fleetDemandQuanta * n
		q := total / float64(nq)
		for step := 0; step < nq; step++ {
			best := -1
			for i := 0; i < n; i++ {
				if assigned[i]+q > rackCap+1e-12 {
					continue
				}
				if best < 0 || assigned[i] < assigned[best] {
					best = i
				}
			}
			if best < 0 {
				unserved += q * float64(nq-step)
				break
			}
			assigned[best] += q
		}
	default: // BalancerWRR
		// Capacity-weighted proportional split; the template is uniform,
		// so every cold rack gets an equal share (and may exceed its
		// QoS-feasible point — the analytic stand-in then reports the
		// violation rather than the balancer hiding it).
		for i := range assigned {
			assigned[i] = total / float64(n)
		}
	}
	return assigned, unserved
}

// assemble folds per-rack outcomes into the fleet Result. All iteration
// is in fixed order (rack id ascending, fleetUtilKeys for stations).
func (t *FleetTopology) assemble(bd *FleetBreakdown, hot, cold []Result) Result {
	bd.RackResults = make([]FleetRack, 0, t.Racks)
	hi, ci := 0, 0
	for id := 0; id < t.Racks; id++ {
		var fr FleetRack
		if hi < len(t.HotSet) && t.HotSet[hi] == id {
			r := hot[hi]
			fr = FleetRack{ID: id, Hot: true, Throughput: r.Throughput,
				MeanLatency: r.MeanLatency, P95Latency: r.P95Latency,
				QoSMet: r.QoSMet, Utilization: r.Utilization, Clients: r.Clients}
			hi++
		} else {
			r := cold[ci]
			fr = FleetRack{ID: id, Throughput: r.Throughput,
				MeanLatency: r.MeanLatency, P95Latency: r.P95Latency,
				QoSMet: r.QoSMet, Utilization: r.Utilization}
			ci++
		}
		bd.RackResults = append(bd.RackResults, fr)
	}

	res := Result{QoSMet: bd.ColdUnserved <= 1e-9, Fleet: bd}
	var latW, meanSum, p95Sum float64
	util := map[string]float64{}
	utilN := map[string]float64{}
	for _, fr := range bd.RackResults {
		res.Throughput += fr.Throughput
		res.Clients += fr.Clients
		if !fr.QoSMet {
			res.QoSMet = false
		}
		if fr.Throughput > 0 && !math.IsInf(fr.MeanLatency, 0) && !math.IsNaN(fr.MeanLatency) {
			latW += fr.Throughput
			meanSum += fr.MeanLatency * fr.Throughput
			p95Sum += fr.P95Latency * fr.Throughput
		}
		for _, k := range fleetUtilKeys {
			if v, ok := fr.Utilization[k]; ok {
				util[k] += v
				utilN[k]++
			}
		}
	}
	res.Perf = res.Throughput
	if latW > 0 {
		res.MeanLatency = meanSum / latW
		res.P95Latency = p95Sum / latW
	}
	res.Utilization = map[string]float64{}
	for _, k := range fleetUtilKeys {
		if utilN[k] > 0 {
			res.Utilization[k] = util[k] / utilN[k]
		}
	}
	res.Bottleneck = bottleneckOf(res.Utilization)
	return res
}

// emitFleet records the fleet-level summary streams into the merged
// sink, after the per-rack parts: fixed counters plus one fleet.rack
// event per rack with the rack id as the event time — all pure
// functions of the breakdown, so the export stays byte-identical and a
// manual composition can reproduce it exactly. Latencies are left out
// of the stream on purpose: a saturated cold rack's are +Inf, which
// has no JSON encoding.
func (t *FleetTopology) emitFleet(s *obs.Sink, bd *FleetBreakdown) {
	s.Count("fleet.racks", int64(bd.Racks))
	s.Count("fleet.hot_racks", int64(len(bd.HotIDs)))
	s.Count("fleet.cold_racks", int64(bd.Racks-len(bd.HotIDs)))
	for _, fr := range bd.RackResults {
		s.Event("fleet.rack", float64(fr.ID),
			obs.FB("hot", fr.Hot),
			obs.F("throughput", fr.Throughput),
			obs.FB("qos_met", fr.QoSMet))
	}
}
