package cluster

import (
	"bytes"
	"strings"
	"testing"

	"warehousesim/internal/obs"
	"warehousesim/internal/obs/window"
	"warehousesim/internal/platform"
	"warehousesim/internal/workload"
)

// sloExport renders a result's windowed-SLO collector the way whsim's
// -slo-out does.
func sloExport(t *testing.T, res Result) []byte {
	t.Helper()
	if res.SLO == nil {
		t.Fatal("run configured with SLOWindowSec returned no SLO collector")
	}
	var buf bytes.Buffer
	if err := res.SLO.WriteJSONL(&buf, res.SLOParts...); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSLOFlatInteractive: the flat adaptive-driver path collects
// windows over the instrumented replay, seals at the run horizon, and
// the collector rides the result without changing it.
func TestSLOFlatInteractive(t *testing.T) {
	cfg := Config{Server: platform.Desk()}
	p := testProfile()
	gen := workload.FixedGenerator{P: p}
	opt := SimOptions{Seed: 7, WarmupSec: 2, MeasureSec: 10, MaxClients: 64}

	base, err := cfg.Simulate(gen, opt)
	if err != nil {
		t.Fatal(err)
	}
	if base.SLO != nil {
		t.Fatal("SLO collector present without SLOWindowSec")
	}

	sink := obs.NewSink()
	opt.Obs = sink
	opt.SLOWindowSec = 1
	var live LiveHandles
	opt.OnProbeTick = func(_ float64, h LiveHandles) { live = h }
	res, err := cfg.Simulate(gen, opt)
	if err != nil {
		t.Fatal(err)
	}
	// The window plane must not perturb the reported operating point.
	if res.Throughput != base.Throughput || res.Clients != base.Clients {
		t.Errorf("SLO collection changed the result: %+v vs %+v", res, base)
	}
	ws := res.SLO.Windows()
	if len(ws) == 0 {
		t.Fatal("no windows collected")
	}
	last := ws[len(ws)-1]
	if horizon := opt.WarmupSec + opt.MeasureSec; last.T1 > horizon {
		t.Errorf("final window T1 %g past the run horizon %g", last.T1, horizon)
	}
	var reqs int64
	sawCPUUtil := false
	for _, w := range ws {
		reqs += w.Requests
		if _, ok := w.Util["cpu"]; ok {
			sawCPUUtil = true
		}
	}
	if reqs == 0 || !sawCPUUtil {
		t.Errorf("windows missing requests (%d) or cpu utilization (%v)", reqs, sawCPUUtil)
	}
	if len(live.SLO) != 1 || live.SLO[0] != res.SLO {
		t.Errorf("OnProbeTick handles = %+v, want the run's single collector", live)
	}
	// The episode summary lands in the deterministic stream.
	if sink.CounterValue("slo.windows") != int64(len(ws)) {
		t.Errorf("slo.windows counter %d != %d windows", sink.CounterValue("slo.windows"), len(ws))
	}
}

// TestSLORackLiveHandles: a rack on one heap hands OnProbeTick every
// per-part collector, enclosures and the rack-global part, and the hook
// can render them on the simulating goroutine.
func TestSLORackLiveHandles(t *testing.T) {
	cfg := Config{Server: platform.Desk(), MemSlowdown: 0.05}
	sink := obs.NewSink()
	opt := rackOptions(1, sink)
	opt.SLOWindowSec = 1
	var live LiveHandles
	opt.OnProbeTick = func(_ float64, h LiveHandles) {
		live = h
		if _, err := window.LiveSnapshot(h.SLO); err != nil {
			t.Error(err)
		}
	}
	res, err := cfg.Simulate(workload.FixedGenerator{P: testProfile()}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(live.SLO) != rackTopology(1).Enclosures+1 {
		t.Fatalf("OnProbeTick SLO parts = %d, want %d", len(live.SLO), rackTopology(1).Enclosures+1)
	}
	for i, c := range live.SLO {
		if c != res.SLOParts[i] {
			t.Errorf("live part %d is not the run's part collector", i)
		}
	}
}

// TestRackProbeTickNeedsOneHeap: a rack on two event heaps rejects
// OnProbeTick, whose reads would cross goroutines.
func TestRackProbeTickNeedsOneHeap(t *testing.T) {
	cfg := Config{Server: platform.Desk(), MemSlowdown: 0.05}
	opt := rackOptions(2, obs.NewSink())
	opt.SLOWindowSec = 1
	opt.OnProbeTick = func(float64, LiveHandles) {}
	_, err := cfg.Simulate(workload.FixedGenerator{P: testProfile()}, opt)
	if err == nil || !strings.Contains(err.Error(), "OnProbeTick") {
		t.Fatalf("2-shard rack with OnProbeTick: err = %v, want a rejection", err)
	}
}

// TestSLOBatchFlat: the inline-instrumented batch path seals at the
// job's completion time.
func TestSLOBatchFlat(t *testing.T) {
	cfg := Config{Server: platform.Desk()}
	p := batchProfile()
	p.JobRequests = 500
	sink := obs.NewSink()
	res, err := cfg.Simulate(workload.FixedGenerator{P: p}, SimOptions{
		Seed: 3, WarmupSec: 0, MeasureSec: 1, MaxClients: 16,
		Obs: sink, SLOWindowSec: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	ws := res.SLO.Windows()
	if len(ws) == 0 {
		t.Fatal("no windows collected")
	}
	if last := ws[len(ws)-1]; last.T1 > res.ExecTime {
		t.Errorf("final window T1 %g past job completion %g", last.T1, res.ExecTime)
	}
	var reqs int64
	for _, w := range ws {
		reqs += w.Requests
	}
	if reqs != int64(p.JobRequests) {
		t.Errorf("windows hold %d requests, job ran %d", reqs, p.JobRequests)
	}
	// Batch profiles carry no QoS bound: windows exist, episodes don't.
	if eps := res.SLO.Episodes(); eps != nil {
		t.Errorf("unbounded batch run produced episodes: %+v", eps)
	}
}
