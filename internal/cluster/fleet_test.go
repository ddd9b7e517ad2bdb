package cluster

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"warehousesim/internal/obs"
	"warehousesim/internal/obs/energy"
	"warehousesim/internal/obs/window"
	"warehousesim/internal/platform"
	"warehousesim/internal/power"
	"warehousesim/internal/workload"
)

// fleetTestRack is the per-rack template fleet tests share: 4
// enclosures so the shard ladder 1/2/4 is meaningful, 2 boards each.
func fleetTestRack() ShardedTopology {
	return ShardedTopology{Enclosures: 4, BoardsPerEnclosure: 2, Shards: 2}
}

// obsExport renders a sink the way whsim's -obs-out does (test sinks
// carry a zero manifest, so the header line is invariant too).
func obsExport(t *testing.T, s *obs.Sink) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFleetNormalizeValidation(t *testing.T) {
	rack := fleetTestRack()
	cases := []struct {
		name string
		topo FleetTopology
		want string
	}{
		{"zero racks", FleetTopology{Rack: rack}, "at least one rack"},
		{"too many racks", FleetTopology{Racks: maxFleetRacks + 1, Rack: rack}, "rack limit"},
		{"negative hot", FleetTopology{Racks: 4, HotRacks: -1, Rack: rack}, "negative hot rack count"},
		{"hot exceeds fleet", FleetTopology{Racks: 2, HotRacks: 3, Rack: rack}, "exceed fleet size"},
		{"hot-set out of range", FleetTopology{Racks: 4, HotSet: []int{4}, Rack: rack}, "outside fleet"},
		{"hot-set negative id", FleetTopology{Racks: 4, HotSet: []int{-1}, Rack: rack}, "outside fleet"},
		{"hot-set duplicate", FleetTopology{Racks: 4, HotSet: []int{1, 1}, Rack: rack}, "duplicate hot rack"},
		{"hot-set disagreement", FleetTopology{Racks: 4, HotRacks: 1, HotSet: []int{0, 1}, Rack: rack}, "disagrees with hot-set"},
		{"unknown balancer", FleetTopology{Racks: 4, Balancer: "random", Rack: rack}, "unknown balancer"},
		{"empty rack template", FleetTopology{Racks: 4}, "fleet rack template"},
		{"bad rack template", FleetTopology{Racks: 4, Rack: ShardedTopology{Enclosures: 1, BoardsPerEnclosure: -1}}, "fleet rack template"},
	}
	for _, c := range cases {
		topo := c.topo
		err := topo.Normalize()
		if err == nil {
			t.Errorf("%s: Normalize accepted %+v", c.name, c.topo)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestFleetNormalizeDefaults(t *testing.T) {
	rack := fleetTestRack()
	rack.Shards = 4
	ft := FleetTopology{Racks: 8, HotSet: []int{5, 2}, Rack: rack}
	if err := ft.Normalize(); err != nil {
		t.Fatal(err)
	}
	if ft.HotSet[0] != 2 || ft.HotSet[1] != 5 {
		t.Errorf("hot set not sorted: %v", ft.HotSet)
	}
	if ft.HotRacks != 2 {
		t.Errorf("HotRacks not derived from hot set: %d", ft.HotRacks)
	}
	if ft.Balancer != BalancerWRR {
		t.Errorf("empty balancer not defaulted: %q", ft.Balancer)
	}
	if ft.Rack.Shards != 4 {
		t.Errorf("rack template shard count not kept: %d", ft.Rack.Shards)
	}

	// SimOptions.Normalize works on a clone: the caller's value must
	// keep its un-normalized shape.
	orig := &FleetTopology{Racks: 4, HotSet: []int{3, 0}, Rack: fleetTestRack()}
	opt := SimOptions{WarmupSec: 1, MeasureSec: 2, MaxClients: 16, Topology: orig}
	n, err := opt.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if orig.Balancer != "" || orig.HotSet[0] != 3 {
		t.Errorf("Normalize wrote through to the caller's topology: %+v", orig)
	}
	nt := n.Topology.(*FleetTopology)
	if nt.Balancer != BalancerWRR || nt.HotSet[0] != 0 {
		t.Errorf("normalized clone wrong: %+v", nt)
	}
}

func TestFleetSimulateRejections(t *testing.T) {
	cfg := Config{Server: platform.Desk()}
	base := FleetTopology{Racks: 3, HotRacks: 1, Rack: fleetTestRack()}
	opt := func() SimOptions {
		topo := base
		return SimOptions{Seed: 5, WarmupSec: 1, MeasureSec: 2, MaxClients: 16, Topology: &topo}
	}

	if _, err := cfg.Simulate(workload.FixedGenerator{P: batchProfile()}, opt()); err == nil || !strings.Contains(err.Error(), "batch") {
		t.Errorf("batch profile accepted by fleet: %v", err)
	}
	o := opt()
	o.TraceEvery = 100
	if _, err := cfg.Simulate(workload.FixedGenerator{P: testProfile()}, o); err == nil || !strings.Contains(err.Error(), "tracing") {
		t.Errorf("span tracing accepted by fleet: %v", err)
	}
	o = opt()
	o.ShardDiag = obs.NewSink()
	if _, err := cfg.Simulate(workload.FixedGenerator{P: testProfile()}, o); err == nil || !strings.Contains(err.Error(), "shard diagnostics") {
		t.Errorf("shard diagnostics accepted by fleet: %v", err)
	}
	if _, err := cfg.Simulate(statefulGen{p: testProfile()}, opt()); err == nil || !strings.Contains(err.Error(), "IsStateless") {
		t.Errorf("stateful generator accepted with hot racks: %v", err)
	}
}

// TestFleetHotAllMatchesManualComposition: a fleet whose hot set is
// every rack must be exactly the composition of per-rack DES runs — the
// same Results rack by rack, the same merged observability bytes, the
// same merged SLO and energy exports. This is the contract that lets
// the analytic stand-in be trusted: the hybrid machinery adds nothing
// to a rack's trajectory.
func TestFleetHotAllMatchesManualComposition(t *testing.T) {
	cfg := Config{Server: platform.Desk()}
	p := testProfile()
	gen := workload.FixedGenerator{P: p}
	const seed, racks = 9, 3

	topo := FleetTopology{Racks: racks, HotRacks: racks, Rack: fleetTestRack()}
	sink := obs.NewSink()
	opt := SimOptions{
		Seed: seed, WarmupSec: 2, MeasureSec: 6, MaxClients: 48,
		Obs: sink, SLOWindowSec: 2,
		Energy:      testEnergyConfig(2, power.DefaultIdleFractions()),
		Parallelism: 2, Topology: &topo,
	}
	fleetRes, err := cfg.Simulate(gen, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Manual composition: one public per-rack run per id, seeded with
	// fleetRackSeed, recording into a private sink.
	manual := make([]Result, racks)
	sinks := make([]*obs.Sink, racks)
	for id := 0; id < racks; id++ {
		rack := fleetTestRack()
		sinks[id] = obs.NewSink()
		ro := SimOptions{
			Seed: fleetRackSeed(seed, id), WarmupSec: 2, MeasureSec: 6, MaxClients: 48,
			Obs: sinks[id], SLOWindowSec: 2,
			Energy:   testEnergyConfig(2, power.DefaultIdleFractions()),
			Topology: &rack,
		}
		manual[id], err = cfg.Simulate(gen, ro)
		if err != nil {
			t.Fatalf("manual rack %d: %v", id, err)
		}
	}

	fb := fleetRes.Fleet
	if fb == nil {
		t.Fatal("fleet run returned no breakdown")
	}
	sum := 0.0
	for id, r := range manual {
		fr := fb.RackResults[id]
		if !fr.Hot || fr.Throughput != r.Throughput || fr.P95Latency != r.P95Latency || fr.Clients != r.Clients {
			t.Errorf("rack %d diverges from its manual run: fleet %+v, manual tput=%g p95=%g clients=%d",
				id, fr, r.Throughput, r.P95Latency, r.Clients)
		}
		sum += r.Throughput
	}
	if fleetRes.Throughput != sum {
		t.Errorf("fleet throughput %g != manual sum %g", fleetRes.Throughput, sum)
	}
	if fb.ColdDemand != 0 || fb.ColdUnserved != 0 {
		t.Errorf("all-hot fleet reports cold demand %g unserved %g", fb.ColdDemand, fb.ColdUnserved)
	}

	// Observability: merging the manual sinks in id order and replaying
	// the fleet-summary emission must reproduce the fleet export byte
	// for byte.
	manualSink := obs.NewSink()
	manualSink.MergeFrom(sinks...)
	mbd := &FleetBreakdown{Racks: racks, HotIDs: []int{0, 1, 2}, Balancer: BalancerWRR}
	for id, r := range manual {
		mbd.RackResults = append(mbd.RackResults, FleetRack{
			ID: id, Hot: true, Throughput: r.Throughput, QoSMet: r.QoSMet})
	}
	topo.emitFleet(manualSink, mbd)
	if !bytes.Equal(obsExport(t, sink), obsExport(t, manualSink)) {
		t.Error("fleet obs export differs from the manual composition")
	}

	// Telemetry planes: fleet-level collectors must equal the manual
	// per-rack collectors merged in id order.
	sloParts := make([]*window.Collector, racks)
	enParts := make([]*window.Collector, racks)
	for id, r := range manual {
		sloParts[id], enParts[id] = r.SLO, r.Energy.Source()
	}
	mergedSLO := window.Merge(sloParts...)
	if !bytes.Equal(sloExport(t, fleetRes), sloExport(t, Result{SLO: mergedSLO, SLOParts: sloParts})) {
		t.Error("fleet SLO export differs from the manual composition")
	}
	mergedEn, err := energy.New(manual[0].Energy.Config(), window.Merge(enParts...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(energyExport(t, fleetRes), energyExport(t, Result{Energy: mergedEn})) {
		t.Error("fleet energy export differs from the manual composition")
	}
}

// TestFleetColdOnlyMatchesAnalytic: with no hot racks the fleet is the
// analytic model times the rack count — wrr routes every rack its
// QoS-feasible operating point, so the fleet throughput is
// racks x boards x Analyze().Throughput and QoS holds fleet-wide.
func TestFleetColdOnlyMatchesAnalytic(t *testing.T) {
	cfg := Config{Server: platform.Desk()}
	p := testProfile()
	const racks = 100

	ana, err := cfg.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	boards := fleetTestRack().Enclosures * fleetTestRack().BoardsPerEnclosure

	for _, bal := range []string{BalancerWRR, BalancerLeastLoaded} {
		topo := FleetTopology{Racks: racks, Rack: fleetTestRack(), Balancer: bal}
		res, err := cfg.Simulate(workload.FixedGenerator{P: p}, SimOptions{
			Seed: 1, WarmupSec: 1, MeasureSec: 2, MaxClients: 16, Topology: &topo,
		})
		if err != nil {
			t.Fatalf("%s: %v", bal, err)
		}
		want := ana.Throughput * float64(boards) * racks
		if math.Abs(res.Throughput-want)/want > 1e-9 {
			t.Errorf("%s: cold-only throughput %g, want %g", bal, res.Throughput, want)
		}
		if !res.QoSMet {
			t.Errorf("%s: cold-only fleet at the feasible point violates QoS", bal)
		}
		if res.Clients != 0 {
			t.Errorf("%s: cold racks report a closed-loop population %d", bal, res.Clients)
		}
		fb := res.Fleet
		if fb == nil || len(fb.RackResults) != racks || len(fb.HotIDs) != 0 {
			t.Fatalf("%s: breakdown wrong: %+v", bal, fb)
		}
		if math.Abs(fb.PerRackDemand-ana.Throughput*float64(boards)) > 1e-9*fb.PerRackDemand {
			t.Errorf("%s: per-rack demand %g, want %g", bal, fb.PerRackDemand, ana.Throughput*float64(boards))
		}
		if fb.ColdUnserved > 1e-9*fb.ColdDemand {
			t.Errorf("%s: feasible demand left unserved: %g of %g", bal, fb.ColdUnserved, fb.ColdDemand)
		}
		// Every rack is the same analytic rack: its latency is the fleet's.
		at, err := cfg.AnalyzeAt(p, fb.RackResults[0].Throughput/float64(boards))
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.P95Latency-at.P95Latency) > 1e-12 {
			t.Errorf("%s: fleet p95 %g, analytic rack p95 %g", bal, res.P95Latency, at.P95Latency)
		}
	}
}

// TestFleetRouteColdPolicies: the balancer tier's routing is a pure
// function of (policy, demand, capacity). least-loaded spreads demand
// evenly, never exceeds a rack's cap, conserves demand (served plus
// unserved equals offered), and reports the overload excess; wrr
// passes the overload through so the analytic stand-in reports the
// saturation instead.
func TestFleetRouteColdPolicies(t *testing.T) {
	ll := FleetTopology{Balancer: BalancerLeastLoaded}
	assigned, unserved := ll.routeCold(4, 10, 8)
	served := 0.0
	for i, a := range assigned {
		if a > 8+1e-9 {
			t.Errorf("least-loaded: rack %d assigned %g above cap 8", i, a)
		}
		if math.Abs(a-assigned[0]) > 1e-9 {
			t.Errorf("least-loaded: uneven spread on identical racks: %v", assigned)
		}
		served += a
	}
	if math.Abs(served+unserved-40) > 1e-9 {
		t.Errorf("least-loaded: demand not conserved: served %g + unserved %g != 40", served, unserved)
	}
	if unserved < 40-4*8-1e-9 {
		t.Errorf("least-loaded: overload excess under-reported: unserved %g", unserved)
	}

	a2, u2 := ll.routeCold(4, 6, 8)
	if u2 != 0 {
		t.Errorf("least-loaded: feasible demand left %g unserved", u2)
	}
	for i, a := range a2 {
		if math.Abs(a-6) > 1e-9 {
			t.Errorf("least-loaded: feasible rack %d assigned %g, want 6", i, a)
		}
	}
	b2, _ := ll.routeCold(4, 6, 8)
	for i := range a2 {
		if a2[i] != b2[i] {
			t.Fatal("least-loaded routing is not deterministic")
		}
	}

	w := FleetTopology{Balancer: BalancerWRR}
	aw, uw := w.routeCold(4, 10, 8)
	if uw != 0 {
		t.Errorf("wrr must never drop demand, got unserved %g", uw)
	}
	for i, a := range aw {
		if a != 10 {
			t.Errorf("wrr: rack %d assigned %g, want the full 10", i, a)
		}
	}
}

// TestFleetUnservedViolatesQoS: demand the least-loaded policy could
// not place anywhere must mark the whole fleet QoS-violating even when
// every individual rack is healthy — dropped load is a violation.
func TestFleetUnservedViolatesQoS(t *testing.T) {
	topo := FleetTopology{Racks: 2, Rack: fleetTestRack(), Balancer: BalancerLeastLoaded}
	if err := topo.Normalize(); err != nil {
		t.Fatal(err)
	}
	ok := Result{QoSMet: true, Throughput: 5}

	res := topo.assemble(&FleetBreakdown{Racks: 2}, nil, []Result{ok, ok})
	if !res.QoSMet {
		t.Error("healthy fleet with no unserved demand reports violation")
	}
	res = topo.assemble(&FleetBreakdown{Racks: 2, ColdUnserved: 3}, nil, []Result{ok, ok})
	if res.QoSMet {
		t.Error("unserved demand must mark the fleet QoS-violating")
	}
	bad := Result{QoSMet: false, Throughput: 5, P95Latency: math.Inf(1), MeanLatency: math.Inf(1)}
	res = topo.assemble(&FleetBreakdown{Racks: 2}, nil, []Result{ok, bad})
	if res.QoSMet {
		t.Error("a saturated rack must mark the fleet QoS-violating")
	}
	if math.IsInf(res.MeanLatency, 0) || math.IsNaN(res.MeanLatency) {
		t.Errorf("fleet latency aggregation leaked the saturated rack's Inf: %g", res.MeanLatency)
	}
}

// TestFleetPartitionInvariance: under either balancer, the fleet
// export must be byte-identical at every shard count, every worker
// count, and every hot-set ordering — the rack discipline (DESIGN.md
// §6) lifted to fleet scope. Two fleets carry the cases: 100 desk
// racks on a test profile, and the warehouse-scale shape of 200 emb1
// racks running websearch at whsim's default run options. Cold racks
// are analytic, so fleet size is nearly free.
func TestFleetPartitionInvariance(t *testing.T) {
	type fleet struct {
		cfg   Config
		gen   workload.FixedGenerator
		racks int
		opts  SimOptions
	}
	warehouse := DefaultSimOptions()
	warehouse.MeasureSec = 10
	fleets := map[string]fleet{
		"desk": {Config{Server: platform.Desk()}, workload.FixedGenerator{P: testProfile()}, 100,
			SimOptions{Seed: 13, WarmupSec: 2, MeasureSec: 6, MaxClients: 48}},
		"emb1": {Config{Server: platform.Emb1()}, workload.FixedGenerator{P: workload.WebsearchProfile()}, 200,
			warehouse},
	}

	type exports struct {
		obs, slo, en []byte
		res          Result
	}
	run := func(name, balancer string, hotSet []int, shards, par int) exports {
		t.Helper()
		f := fleets[name]
		rack := fleetTestRack()
		rack.Shards = shards
		topo := FleetTopology{
			Racks: f.racks, HotSet: append([]int(nil), hotSet...),
			Rack: rack, Balancer: balancer,
		}
		sink := obs.NewSink()
		opts := f.opts
		opts.Obs, opts.SLOWindowSec = sink, 2
		opts.Energy = testEnergyConfig(2, power.DefaultIdleFractions())
		opts.Parallelism, opts.Topology = par, &topo
		res, err := f.cfg.Simulate(f.gen, opts)
		if err != nil {
			t.Fatalf("%s %s hotSet=%v shards=%d par=%d: %v", name, balancer, hotSet, shards, par, err)
		}
		return exports{obsExport(t, sink), sloExport(t, res), energyExport(t, res), res}
	}

	bases := map[string]exports{
		"desk " + BalancerLeastLoaded: run("desk", BalancerLeastLoaded, []int{3, 97}, 2, 1),
		"desk " + BalancerWRR:         run("desk", BalancerWRR, []int{3, 97}, 2, 1),
		"emb1 " + BalancerLeastLoaded: run("emb1", BalancerLeastLoaded, []int{17, 141}, 2, 1),
	}
	for _, v := range []struct {
		name     string
		fleet    string
		balancer string
		hotSet   []int
		shards   int
		par      int
	}{
		{"shards=1", "desk", BalancerLeastLoaded, []int{3, 97}, 1, 1},
		{"shards=4", "desk", BalancerLeastLoaded, []int{3, 97}, 4, 1},
		{"par=4", "desk", BalancerLeastLoaded, []int{3, 97}, 2, 4},
		{"hot-set reversed", "desk", BalancerLeastLoaded, []int{97, 3}, 2, 1},
		{"shards=4 par=4 reversed", "desk", BalancerLeastLoaded, []int{97, 3}, 4, 4},
		{"wrr shards=1", "desk", BalancerWRR, []int{3, 97}, 1, 1},
		{"wrr hot-set reversed", "desk", BalancerWRR, []int{97, 3}, 2, 1},
		{"wrr shards=4 par=4", "desk", BalancerWRR, []int{3, 97}, 4, 4},
		{"emb1 shards=4 par=4 reversed", "emb1", BalancerLeastLoaded, []int{141, 17}, 4, 4},
	} {
		base := bases[v.fleet+" "+v.balancer]
		got := run(v.fleet, v.balancer, v.hotSet, v.shards, v.par)
		if !bytes.Equal(got.obs, base.obs) {
			t.Errorf("%s: obs export differs from baseline", v.name)
		}
		if !bytes.Equal(got.slo, base.slo) {
			t.Errorf("%s: SLO export differs from baseline", v.name)
		}
		if !bytes.Equal(got.en, base.en) {
			t.Errorf("%s: energy export differs from baseline", v.name)
		}
		if got.res.Throughput != base.res.Throughput || got.res.P95Latency != base.res.P95Latency {
			t.Errorf("%s: result diverges: tput %g vs %g", v.name, got.res.Throughput, base.res.Throughput)
		}
	}
}

// TestAnalyzeAtContract: the fixed-rate solver agrees with the
// bisection solver at its knife-edge, reports saturation honestly, and
// rejects the shapes it cannot model.
func TestAnalyzeAtContract(t *testing.T) {
	cfg := Config{Server: platform.Desk()}
	p := testProfile()

	ana, err := cfg.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	at, err := cfg.AnalyzeAt(p, ana.Throughput)
	if err != nil {
		t.Fatal(err)
	}
	if !at.QoSMet {
		t.Errorf("AnalyzeAt at the bisection operating point %g violates QoS (p95 %g vs %g)",
			ana.Throughput, at.P95Latency, p.QoSLatencySec)
	}
	if at.Throughput != ana.Throughput {
		t.Errorf("AnalyzeAt throughput %g echoes lambda %g wrongly", at.Throughput, ana.Throughput)
	}

	under, err := cfg.AnalyzeAt(p, ana.Throughput/2)
	if err != nil {
		t.Fatal(err)
	}
	if !under.QoSMet || under.P95Latency >= at.P95Latency {
		t.Errorf("half load must be comfortably feasible: %+v", under)
	}

	over, err := cfg.AnalyzeAt(p, ana.Throughput*1e3)
	if err != nil {
		t.Fatal(err)
	}
	if over.QoSMet || !math.IsInf(over.P95Latency, 1) {
		t.Errorf("saturated rack must report QoSMet=false with infinite latency: %+v", over)
	}

	if _, err := cfg.AnalyzeAt(batchProfile(), 1); err == nil {
		t.Error("AnalyzeAt accepted a batch profile")
	}
	if _, err := cfg.AnalyzeAt(p, -1); err == nil {
		t.Error("AnalyzeAt accepted a negative arrival rate")
	}
	if _, err := cfg.AnalyzeAt(p, math.NaN()); err == nil {
		t.Error("AnalyzeAt accepted a NaN arrival rate")
	}
}
