package cluster

import (
	"math"
	"reflect"
	"testing"

	"warehousesim/internal/obs/energy"
	"warehousesim/internal/platform"
	"warehousesim/internal/power"
	"warehousesim/internal/workload"
)

func quickSimOptions() SimOptions {
	return SimOptions{Seed: 7, WarmupSec: 10, MeasureSec: 60, MaxClients: 2048}
}

func TestSimulateInteractiveBasics(t *testing.T) {
	gen := workload.FixedGenerator{P: testProfile()}
	cfg := Config{Server: platform.Desk()}
	res, err := cfg.Simulate(gen, quickSimOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.QoSMet {
		t.Fatal("desk should meet 0.5s QoS on 20ms requests")
	}
	if res.Throughput <= 0 || res.Clients <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.P95Latency > testProfile().QoSLatencySec {
		t.Errorf("reported p95 %g violates QoS", res.P95Latency)
	}
}

func TestSimulateDeterministicAcrossRuns(t *testing.T) {
	gen := workload.FixedGenerator{P: testProfile()}
	cfg := Config{Server: platform.Emb1()}
	a, err := cfg.Simulate(gen, quickSimOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := cfg.Simulate(gen, quickSimOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Throughput != b.Throughput || a.Clients != b.Clients {
		t.Errorf("same seed, different results: %+v vs %+v", a, b)
	}
}

func TestSimulateBatch(t *testing.T) {
	p := batchProfile()
	p.JobRequests = 500
	gen := workload.FixedGenerator{P: p}
	cfg := Config{Server: platform.Srvr2()}
	res, err := cfg.Simulate(gen, quickSimOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTime <= 0 {
		t.Fatalf("batch exec time = %g", res.ExecTime)
	}
	if math.Abs(res.Perf-1/res.ExecTime) > 1e-12 {
		t.Error("batch perf inconsistent with exec time")
	}
}

func TestSimulateBatchFasterOnBiggerMachine(t *testing.T) {
	p := batchProfile()
	p.JobRequests = 400
	gen := workload.FixedGenerator{P: p}
	big, err := Config{Server: platform.Srvr1()}.Simulate(gen, quickSimOptions())
	if err != nil {
		t.Fatal(err)
	}
	small, err := Config{Server: platform.Emb1()}.Simulate(gen, quickSimOptions())
	if err != nil {
		t.Fatal(err)
	}
	if big.ExecTime >= small.ExecTime {
		t.Errorf("srvr1 (%gs) not faster than emb1 (%gs)", big.ExecTime, small.ExecTime)
	}
}

func TestSimulateRejectsBadOptions(t *testing.T) {
	gen := workload.FixedGenerator{P: testProfile()}
	cfg := Config{Server: platform.Desk()}
	for _, opt := range []SimOptions{
		{Seed: 1, WarmupSec: -1, MeasureSec: 10, MaxClients: 10},
		{Seed: 1, WarmupSec: 1, MeasureSec: 0, MaxClients: 10},
		{Seed: 1, WarmupSec: 1, MeasureSec: 10, MaxClients: 0},
	} {
		if _, err := cfg.Simulate(gen, opt); err == nil {
			t.Errorf("options %+v accepted", opt)
		}
	}
}

// FuzzSimOptionsNormalize checks option normalization over generated
// windows, parallelism, trace strides, SLO and energy widths and
// topologies: it must never panic, and whatever it accepts must be a
// fixed point — normalizing the result again changes nothing. kind
// selects no topology, a rack built from the fuzzed ints, or a fleet of
// such racks; boards, when non-empty, is the rack's per-enclosure board
// list and the fleet's hot set. With energyOn it adds an energy plane
// of the fuzzed width: accepted options never carry two different
// positive widths, and an energy plane whose width is valid is
// accepted whenever the rest is and the SLO plane is off or as wide.
func FuzzSimOptionsNormalize(f *testing.F) {
	f.Add(30.0, 240.0, 4096, 0.0, int64(0), 0, 0.0, uint8(0), 0, 0, 0, 0, 0, []byte(nil), false, 0.0)
	f.Add(30.0, 20.0, 64, 1.0, int64(1), 4, 1.0, uint8(1), 4, 2, 0, 4, 0, []byte(nil), true, 1.0)
	f.Add(0.0, 10.0, 8, 0.5, int64(3), 2, 0.25, uint8(1), 4, 0, 3, 9, 0, []byte{12, 2, 2, 2}, true, 0.5)
	f.Add(2.0, 10.0, 32, 0.0, int64(0), 1, 1.0, uint8(2), 4, 2, 0, 2, 200, []byte{17, 141}, false, 2.0)
	f.Add(2.0, 10.0, 32, 0.0, int64(0), 1, 0.0, uint8(5), 1, 1, 0, 1, 3, []byte(nil), true, 2.0)
	f.Add(math.NaN(), 10.0, 32, math.NaN(), int64(0), 1, 0.0, uint8(0), 0, 0, 0, 0, 0, []byte(nil), true, math.NaN())
	f.Add(0.0, math.Inf(1), 32, math.Inf(1), int64(-1), -1, math.NaN(), uint8(0), 0, 0, 0, 0, 0, []byte(nil), true, math.Inf(1))
	f.Add(1.0, 10.0, 8, 0.0, int64(0), 1, 1.0, uint8(0), 0, 0, 0, 0, 0, []byte(nil), true, 2.0)
	f.Fuzz(func(t *testing.T, warmup, measure float64, maxClients int, probe float64, trace int64, par int,
		slo float64, kind uint8, encs, perEnc, clients, shards, racks int, boards []byte, energyOn bool, energyWidth float64) {
		o := SimOptions{
			Seed: 1, WarmupSec: warmup, MeasureSec: measure, MaxClients: maxClients,
			ProbeIntervalSec: probe, TraceEvery: trace, Parallelism: par, SLOWindowSec: slo,
		}
		list := make([]int, len(boards))
		for i, b := range boards {
			list[i] = int(int8(b)) // negative entries exercise validation
		}
		rack := ShardedTopology{Enclosures: encs, BoardsPerEnclosure: perEnc, ClientsPerBoard: clients, Shards: shards}
		switch kind % 3 {
		case 1:
			rack.Boards = list
			o.Topology = &rack
		case 2:
			balancers := [...]string{"", BalancerWRR, BalancerLeastLoaded, "random"}
			o.Topology = &FleetTopology{Racks: racks, HotRacks: clients, HotSet: list, Rack: rack, Balancer: balancers[kind/3%4]}
		}
		_, restErr := o.Normalize()
		if energyOn {
			o.Energy = &energy.Config{WidthSec: energyWidth, Model: energy.Model{Idle: power.DefaultIdleFractions()}}
		}
		got, err := o.Normalize()
		if energyOn && restErr == nil && o.Energy.Validate() == nil && (slo == 0 || slo == energyWidth) && err != nil {
			t.Fatalf("energy width %g with SLO width %g rejected: %v", energyWidth, slo, err)
		}
		if err != nil {
			return
		}
		if got.Energy != nil && got.SLOWindowSec > 0 && got.Energy.WidthSec != got.SLOWindowSec {
			t.Fatalf("accepted energy width %g beside SLO width %g", got.Energy.WidthSec, got.SLOWindowSec)
		}
		again, err := got.Normalize()
		if err != nil {
			t.Fatalf("normalized options rejected on the second pass: %v\n%+v", err, got)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("normalization is not idempotent:\nonce  %+v\ntwice %+v", got, again)
		}
		if o.Topology != nil && got.Topology == o.Topology {
			t.Fatal("Normalize wrote through the caller's topology")
		}
		var accepted *ShardedTopology
		switch topo := got.Topology.(type) {
		case *ShardedTopology:
			accepted = topo
		case *FleetTopology:
			accepted = &topo.Rack
		}
		if accepted != nil {
			if n := accepted.TotalBoards(); n < 1 || n > maxRackBoards {
				t.Fatalf("accepted a rack of %d boards, outside [1, %d]: %+v", n, maxRackBoards, accepted)
			}
		}
	})
}

// Cross-validation (DESIGN.md §5): the analytic solver and the DES must
// agree on sustained throughput within a modest tolerance for both an
// interactive and a batch workload on several platforms.
func TestAnalyticMatchesDES(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation is slow")
	}
	p := testProfile()
	gen := workload.FixedGenerator{P: p}
	for _, s := range []platform.Server{platform.Srvr1(), platform.Desk(), platform.Emb1()} {
		cfg := Config{Server: s}
		ana, err := cfg.Analyze(p)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := cfg.Simulate(gen, SimOptions{Seed: 11, WarmupSec: 20, MeasureSec: 120, MaxClients: 4096})
		if err != nil {
			t.Fatal(err)
		}
		ratio := sim.Throughput / ana.Throughput
		if ratio < 0.75 || ratio > 1.35 {
			t.Errorf("%s: DES %.1f rps vs analytic %.1f rps (ratio %.2f)",
				s.Name, sim.Throughput, ana.Throughput, ratio)
		}
	}
}

func TestAnalyticMatchesDESBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-validation is slow")
	}
	p := batchProfile()
	gen := workload.FixedGenerator{P: p, Deterministic: true}
	for _, s := range []platform.Server{platform.Srvr2(), platform.Emb1()} {
		cfg := Config{Server: s}
		ana, err := cfg.Analyze(p)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := cfg.Simulate(gen, quickSimOptions())
		if err != nil {
			t.Fatal(err)
		}
		ratio := sim.ExecTime / ana.ExecTime
		if ratio < 0.8 || ratio > 1.25 {
			t.Errorf("%s: DES exec %.1fs vs analytic %.1fs (ratio %.2f)",
				s.Name, sim.ExecTime, ana.ExecTime, ratio)
		}
	}
}

func TestBottleneckOf(t *testing.T) {
	for _, c := range []struct {
		util map[string]float64
		want string
	}{
		{map[string]float64{"cpu": 0.9, "disk": 0.2, "net": 0.1}, "cpu"},
		{map[string]float64{"cpu": 0.1, "disk": 0.95, "net": 0.1}, "disk"},
		// A rack's memory blade is a station too; on a tie the
		// board-local stations win.
		{map[string]float64{"cpu": 0.5, "disk": 0.2, "net": 0.1, "memblade": 0.8}, "memblade"},
		{map[string]float64{"cpu": 0.8, "disk": 0.2, "net": 0.1, "memblade": 0.8}, "cpu"},
	} {
		if got := bottleneckOf(c.util); got != c.want {
			t.Errorf("bottleneckOf(%v) = %s, want %s", c.util, got, c.want)
		}
	}
}
