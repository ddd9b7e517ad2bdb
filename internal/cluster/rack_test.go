package cluster

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"warehousesim/internal/obs"
	"warehousesim/internal/platform"
	"warehousesim/internal/power"
	"warehousesim/internal/stats"
	"warehousesim/internal/workload"
)

func rackTopology(shards int) *ShardedTopology {
	return &ShardedTopology{Enclosures: 4, BoardsPerEnclosure: 2, ClientsPerBoard: 2, Shards: shards}
}

func rackOptions(shards int, rec obs.Recorder) SimOptions {
	return SimOptions{
		Seed: 7, WarmupSec: 2, MeasureSec: 10, MaxClients: 64,
		Obs: rec, ProbeIntervalSec: 0.5, TraceEvery: 50,
		Topology: rackTopology(shards),
	}
}

// rackRun simulates the reference rack at the given shard count and
// returns the Result plus the recorded export bytes.
func rackRun(t *testing.T, p workload.Profile, shards int) (Result, []byte) {
	t.Helper()
	cfg := Config{Server: platform.Desk(), MemSlowdown: 0.05}
	sink := obs.NewSink()
	res, err := cfg.Simulate(workload.FixedGenerator{P: p}, rackOptions(shards, sink))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sink.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestRackShardInvarianceInteractive is the acceptance gate of the
// sharded kernel: the same interactive rack run must produce
// DeepEqual Results and byte-identical obs exports at every legal
// shard count.
func TestRackShardInvarianceInteractive(t *testing.T) {
	p := testProfile()
	ref, refExport := rackRun(t, p, 1)
	if ref.Throughput <= 0 || ref.Clients != 4*2*2 {
		t.Fatalf("degenerate reference result: %+v", ref)
	}
	for _, shards := range []int{2, 3, 4} {
		res, export := rackRun(t, p, shards)
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("shards=%d result differs:\n  1: %+v\n  %d: %+v", shards, ref, shards, res)
		}
		if !bytes.Equal(refExport, export) {
			t.Errorf("shards=%d export differs from shards=1 (%d vs %d bytes)",
				shards, len(refExport), len(export))
		}
	}
}

// TestRackShardInvarianceBatch: the mapreduce job — with its
// cross-enclosure shuffle and shard-0 aggregator — must likewise be
// partition-independent, including the recorded replay.
func TestRackShardInvarianceBatch(t *testing.T) {
	p := batchProfile()
	p.JobRequests = 300
	ref, refExport := rackRun(t, p, 1)
	if ref.ExecTime <= 0 {
		t.Fatalf("degenerate reference result: %+v", ref)
	}
	for _, shards := range []int{2, 4} {
		res, export := rackRun(t, p, shards)
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("shards=%d result differs:\n  1: %+v\n  %d: %+v", shards, ref, shards, res)
		}
		if !bytes.Equal(refExport, export) {
			t.Errorf("shards=%d export differs from shards=1 (%d vs %d bytes)",
				shards, len(refExport), len(export))
		}
	}
}

// TestRackObsDoesNotChangeResult: recording a rack run must leave the
// reported numbers untouched, same as the flat model.
func TestRackObsDoesNotChangeResult(t *testing.T) {
	cfg := Config{Server: platform.Desk(), MemSlowdown: 0.05}
	gen := workload.FixedGenerator{P: testProfile()}
	plain, err := cfg.Simulate(gen, rackOptions(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	probed, err := cfg.Simulate(gen, rackOptions(2, obs.NewSink()))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Throughput != probed.Throughput || plain.MeanLatency != probed.MeanLatency ||
		plain.P95Latency != probed.P95Latency || plain.Clients != probed.Clients {
		t.Fatalf("obs changed the rack result:\nplain  %+v\nprobed %+v", plain, probed)
	}
}

// TestRackShardDiag: engine diagnostics land in ShardDiag, not in the
// byte-compared export, and a 2-shard run fills every series the
// benchmark's shard probe reads: for each shard the windows, fired and
// msgs_sent counters, and a shard.summary event whose busy and blocked
// wall-clock seconds are not both zero.
func TestRackShardDiag(t *testing.T) {
	cfg := Config{Server: platform.Desk()}
	diag := obs.NewSink()
	opt := rackOptions(2, nil)
	opt.ShardDiag = diag
	if _, err := cfg.Simulate(workload.FixedGenerator{P: testProfile()}, opt); err != nil {
		t.Fatal(err)
	}
	wallSec := map[int]float64{}
	diag.EachEvent(func(e obs.EventRecord) {
		if e.Stream != "shard.summary" {
			return
		}
		shard := -1
		var busy, blocked float64
		for _, f := range e.Fields {
			switch f.Key {
			case "shard":
				shard = int(f.Num)
			case "busy_sec":
				busy = f.Num
			case "blocked_sec":
				blocked = f.Num
			}
		}
		wallSec[shard] += busy + blocked
	})
	for s := 0; s < 2; s++ {
		for _, name := range []string{"shard.windows", "shard.fired", "shard.msgs_sent"} {
			if diag.CounterValue(fmt.Sprintf("%s.s%d", name, s)) == 0 {
				t.Errorf("shard %d: %s.s%d is zero", s, name, s)
			}
		}
		if w, ok := wallSec[s]; !ok || !(w > 0) {
			t.Errorf("shard %d: shard.summary busy_sec + blocked_sec = %g (present %v), want > 0", s, w, ok)
		}
	}
}

// TestRackSingleEnclosure: the degenerate one-enclosure rack still runs
// (Shards clamps to 1) and zero think time — the tightest event cadence
// the model produces — does not deadlock the exchange.
func TestRackSingleEnclosure(t *testing.T) {
	p := testProfile()
	p.ThinkTimeSec = 0
	cfg := Config{Server: platform.Desk()}
	opt := rackOptions(8, nil)
	opt.Topology = &ShardedTopology{Enclosures: 1, BoardsPerEnclosure: 2, ClientsPerBoard: 1, Shards: 8}
	res, err := cfg.Simulate(workload.FixedGenerator{P: p}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

// statefulGen lacks the Stateless marker — stands in for the engine
// generators the rack model must refuse.
type statefulGen struct{ p workload.Profile }

func (g statefulGen) Profile() workload.Profile          { return g.p }
func (g statefulGen) Sample(*stats.RNG) workload.Request { return g.p.MeanRequest() }

// TestRackRejectsStatefulGenerator: rack runs sample the generator
// concurrently across shards and must refuse stateful ones.
func TestRackRejectsStatefulGenerator(t *testing.T) {
	cfg := Config{Server: platform.Desk()}
	if _, err := cfg.Simulate(statefulGen{p: testProfile()}, rackOptions(2, nil)); err == nil {
		t.Fatal("stateful generator accepted by rack model")
	}
}

func TestNormalizeDefaults(t *testing.T) {
	o := SimOptions{Seed: 1, WarmupSec: 1, MeasureSec: 10, MaxClients: 8}
	n, err := o.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.ProbeIntervalSec != 1 || n.Parallelism != 1 {
		t.Fatalf("defaults not applied: %+v", n)
	}
	o.Topology = &ShardedTopology{Enclosures: 4, BoardsPerEnclosure: 1, Shards: 9}
	n, err = o.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	nt := n.Topology.(*ShardedTopology)
	if nt.Shards != 4 || nt.ClientsPerBoard != 4 {
		t.Fatalf("topology defaults not applied: %+v", *nt)
	}
	if o.Topology.(*ShardedTopology).Shards != 9 {
		t.Fatal("Normalize mutated the caller's topology")
	}
}

// TestRackPlacementInvariance: a skewed heterogeneous rack (one
// 5-board enclosure plus three 1-board ones) must produce DeepEqual
// Results and byte-identical obs, SLO, and energy exports at shards
// 1/2/4 — block placement moves the giant enclosure's neighbors
// between shards as the count changes.
func TestRackPlacementInvariance(t *testing.T) {
	p := testProfile()
	run := func(shards int) (Result, []byte, []byte, []byte) {
		cfg := Config{Server: platform.Desk(), MemSlowdown: 0.05}
		sink := obs.NewSink()
		opt := rackOptions(shards, sink)
		opt.Topology = &ShardedTopology{
			Enclosures: 4, Boards: []int{5, 1, 1, 1}, ClientsPerBoard: 2,
			Shards: shards,
		}
		opt.SLOWindowSec = 1
		opt.Energy = testEnergyConfig(1, power.DefaultIdleFractions())
		res, err := cfg.Simulate(workload.FixedGenerator{P: p}, opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sink.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		slo, en := sloExport(t, res), energyExport(t, res)
		// The collector handles are fresh pointers per run; the exports
		// above already compare their contents byte for byte.
		res.SLO, res.SLOParts, res.Energy = nil, nil, nil
		return res, buf.Bytes(), slo, en
	}
	ref, refObs, refSLO, refEnergy := run(1)
	if ref.Throughput <= 0 || ref.Clients != (5+1+1+1)*2 {
		t.Fatalf("degenerate reference result: %+v", ref)
	}
	for _, shards := range []int{2, 4} {
		res, obsB, slo, en := run(shards)
		if !reflect.DeepEqual(ref, res) {
			t.Errorf("shards=%d: result differs:\n  ref: %+v\n  got: %+v", shards, ref, res)
		}
		if !bytes.Equal(refObs, obsB) {
			t.Errorf("shards=%d: obs export differs (%d vs %d bytes)", shards, len(refObs), len(obsB))
		}
		if !bytes.Equal(refSLO, slo) {
			t.Errorf("shards=%d: SLO export differs (%d vs %d bytes)", shards, len(refSLO), len(slo))
		}
		if !bytes.Equal(refEnergy, en) {
			t.Errorf("shards=%d: energy export differs (%d vs %d bytes)", shards, len(refEnergy), len(en))
		}
	}
}

func TestNormalizeRejectsBadTopology(t *testing.T) {
	for _, topo := range []ShardedTopology{
		{Enclosures: 0, BoardsPerEnclosure: 1},
		{Enclosures: 1, BoardsPerEnclosure: 0},
		{Enclosures: 1, BoardsPerEnclosure: 1, ClientsPerBoard: -1},
		{Enclosures: 2, Boards: []int{1}},
		{Enclosures: 2, Boards: []int{1, 0}},
	} {
		topo := topo
		o := SimOptions{Seed: 1, WarmupSec: 1, MeasureSec: 10, MaxClients: 8, Topology: &topo}
		if _, err := o.Normalize(); err == nil {
			t.Errorf("topology %+v accepted", topo)
		}
	}
}

// TestNormalizeBoundsRackSize: the board count is summed without
// overflow and capped at maxRackBoards. The first case is whsim's
// -enclosures 3037000500 -boards 3037000500, whose product used to wrap
// negative and surface as a shard-engine error.
func TestNormalizeBoundsRackSize(t *testing.T) {
	for _, tc := range []struct {
		topo ShardedTopology
		want string // error substring; "" means accepted
	}{
		{ShardedTopology{Enclosures: 3037000500, BoardsPerEnclosure: 3037000500, Shards: 1}, "rack of 3037000500 enclosures holds more than 16384 boards: enclosure 0 has 3037000500"},
		{ShardedTopology{Enclosures: 2, Boards: []int{maxRackBoards, math.MaxInt}}, "enclosure 1 has 9223372036854775807, after 16384"},
		{ShardedTopology{Enclosures: maxRackBoards + 1, BoardsPerEnclosure: 1}, "enclosure 16384 has 1, after 16384"},
		{ShardedTopology{Enclosures: 128, BoardsPerEnclosure: 128}, ""},
	} {
		topo := tc.topo
		o := SimOptions{Seed: 1, WarmupSec: 1, MeasureSec: 10, MaxClients: 8, Topology: &topo}
		_, err := o.Normalize()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%d x %d rack rejected: %v", tc.topo.Enclosures, tc.topo.BoardsPerEnclosure, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%d enclosures: error %v, want one containing %q", tc.topo.Enclosures, err, tc.want)
		}
	}
}
