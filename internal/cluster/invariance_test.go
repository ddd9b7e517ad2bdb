package cluster_test

import (
	"crypto/sha256"
	"fmt"
	"io"
	"testing"

	"warehousesim/internal/cluster"
	"warehousesim/internal/core"
	"warehousesim/internal/obs"
	"warehousesim/internal/obs/energy"
	"warehousesim/internal/obs/span"
	"warehousesim/internal/platform"
	"warehousesim/internal/power"
	"warehousesim/internal/workload"
)

// exports holds the digests of one run's deterministic outputs, each
// hashed whole: the obs sink, -slo-out, -energy-out, and for traced
// runs -trace-out and -attr-out, plus the Result fields whsim prints.
type exports struct{ obs, slo, energy, trace, attr, result [sha256.Size]byte }

func digest(t *testing.T, write func(io.Writer) error) [sha256.Size]byte {
	t.Helper()
	h := sha256.New()
	if err := write(h); err != nil {
		t.Fatal(err)
	}
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// The four partition-invariance tests below are the byte-identity gate
// of the windowed planes: emb1 running websearch with 1 s energy
// windows, as whsim runs it, on a rack of 4 enclosures x 2 boards at
// shards 1/2/4 or on the flat model at search parallelism 1/4, must
// export the same obs, SLO and energy bytes in every case. The SLO
// tests run with 1 s SLO windows (both planes read one collector), the
// energy tests without them. Whole files are
// compared: none of the three records a shard or parallelism count.

// TestSLORackShardInvariance: rack shards 1/2/4 with the SLO plane on.
func TestSLORackShardInvariance(t *testing.T) {
	checkTelemetryInvariance(t, 1, rackCases())
}

// TestSLOFlatParInvariance: flat par 1/4 with the SLO plane on.
func TestSLOFlatParInvariance(t *testing.T) {
	checkTelemetryInvariance(t, 1, flatCases())
}

// TestEnergyRackShardInvariance: rack shards 1/2/4 with the SLO plane
// off, so the window collector serves energy alone.
func TestEnergyRackShardInvariance(t *testing.T) {
	checkTelemetryInvariance(t, 0, rackCases())
}

// TestEnergyFlatParInvariance: flat par 1/4 with the SLO plane off.
func TestEnergyFlatParInvariance(t *testing.T) {
	checkTelemetryInvariance(t, 0, flatCases())
}

// TestFlatParSearchTracedInvariance is whsim's parallel-search
// determinism gate: desk running websearch at seed 7 with 30 s
// measured, every request traced and 1 s SLO and energy windows, at
// search parallelism 1 and 4, must also write the same Perfetto trace
// and attribution CSV and report the same Result.
func TestFlatParSearchTracedInvariance(t *testing.T) {
	cases := flatCases()
	for i := range cases {
		cases[i].shape = runShape{server: platform.Desk(), seed: 7, measureSec: 30, traceEvery: 1}
	}
	checkTelemetryInvariance(t, 1, cases)
}

// partitionCase is one partitioning of the same run: a rack at some
// shard count (topo set) or the flat model at some parallelism. Every
// case of one check shares a shape.
type partitionCase struct {
	name  string
	topo  *cluster.ShardedTopology
	par   int
	shape runShape
}

// runShape is the run a check partitions; the zero shape is emb1 at
// seed 1 with 20 s measured and tracing off.
type runShape struct {
	server     platform.Server
	seed       uint64
	measureSec float64
	traceEvery int64
}

func rackCases() []partitionCase {
	var cases []partitionCase
	for _, shards := range []int{1, 2, 4} {
		cases = append(cases, partitionCase{name: fmt.Sprintf("shards=%d", shards),
			topo: &cluster.ShardedTopology{Enclosures: 4, BoardsPerEnclosure: 2, Shards: shards}, par: 1})
	}
	return cases
}

func flatCases() []partitionCase {
	var cases []partitionCase
	for _, par := range []int{1, 4} {
		cases = append(cases, partitionCase{name: fmt.Sprintf("par=%d", par), par: par})
	}
	return cases
}

// checkTelemetryInvariance runs every case with sloSec-wide SLO windows
// (0 turns the SLO plane off) and requires each case's exports to match
// the first case's byte for byte.
func checkTelemetryInvariance(t *testing.T, sloSec float64, cases []partitionCase) {
	t.Helper()
	shape := cases[0].shape
	if shape.server.Name == "" {
		shape = runShape{server: platform.Emb1(), seed: 1, measureSec: 20}
	}
	ev := core.NewEvaluator()
	d := core.BaselineDesign(shape.server)
	p := workload.WebsearchProfile()
	cfg, err := ev.ClusterConfig(d, p)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := ev.PowerBreakdown(d)
	if err != nil {
		t.Fatal(err)
	}
	var ref *exports
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sink := obs.NewSink()
			opt := cluster.DefaultSimOptions()
			opt.Seed = shape.seed
			opt.MeasureSec = shape.measureSec
			opt.TraceEvery = shape.traceEvery
			opt.Parallelism = tc.par
			opt.Obs = sink
			opt.SLOWindowSec = sloSec
			opt.Energy = &energy.Config{WidthSec: 1, Model: energy.Model{Active: pb, Idle: power.DefaultIdleFractions()}}
			if tc.topo != nil {
				opt.Topology = tc.topo
			}
			res, err := cfg.Simulate(workload.FixedGenerator{P: p}, opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Energy == nil || (res.SLO == nil) != (sloSec == 0) {
				t.Fatalf("run returned SLO %v, energy %v", res.SLO != nil, res.Energy != nil)
			}
			if len(res.Energy.Windows()) == 0 {
				t.Fatal("no energy windows collected")
			}
			if res.SLO != nil && len(res.SLO.Windows()) == 0 {
				t.Fatal("no SLO windows collected")
			}
			if tc.topo != nil {
				if want := tc.topo.Enclosures + 1; res.SLO != nil && len(res.SLOParts) != want {
					t.Errorf("got %d SLO parts, want %d (enclosures + global)", len(res.SLOParts), want)
				}
				// Per-enclosure cpu and rack-global san utilization both
				// reach the merged windows.
				sawCPU, sawSAN := false, false
				for _, w := range res.Energy.Windows() {
					_, cpu := w.Util["cpu"]
					_, san := w.Util["san"]
					sawCPU, sawSAN = sawCPU || cpu, sawSAN || san
				}
				if !sawCPU || !sawSAN {
					t.Errorf("merged windows missing drivers: cpu %v san %v", sawCPU, sawSAN)
				}
			}
			got := exports{
				obs:    digest(t, sink.WriteJSONL),
				energy: digest(t, res.Energy.WriteJSONL),
				result: digest(t, func(w io.Writer) error {
					_, err := fmt.Fprintf(w, "%v %d %v %v %v %v %s %v", res.Throughput, res.Clients, res.QoSMet,
						res.MeanLatency, res.P95Latency, res.ExecTime, res.Bottleneck, res.Utilization)
					return err
				}),
			}
			if res.SLO != nil {
				got.slo = digest(t, func(w io.Writer) error { return res.SLO.WriteJSONL(w, res.SLOParts...) })
			}
			if shape.traceEvery > 0 {
				if sink.EventCount("span") == 0 {
					t.Fatal("traced run recorded no spans")
				}
				got.trace = digest(t, func(w io.Writer) error { return span.WriteTrace(w, sink) })
				got.attr = digest(t, span.Analyze(sink).WriteCSV)
			}
			if ref == nil {
				ref = &got
				return
			}
			if got.obs != ref.obs {
				t.Error("obs export differs from the first case")
			}
			if got.slo != ref.slo {
				t.Error("SLO export differs from the first case")
			}
			if got.energy != ref.energy {
				t.Error("energy export differs from the first case")
			}
			if got.trace != ref.trace {
				t.Error("Perfetto trace differs from the first case")
			}
			if got.attr != ref.attr {
				t.Error("attribution CSV differs from the first case")
			}
			if got.result != ref.result {
				t.Errorf("result differs from the first case: %+v", res)
			}
		})
	}
}
