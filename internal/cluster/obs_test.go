package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"warehousesim/internal/obs"
	"warehousesim/internal/platform"
	"warehousesim/internal/workload"
)

func obsTestOptions(rec *obs.Sink) SimOptions {
	return SimOptions{
		Seed: 11, WarmupSec: 2, MeasureSec: 10, MaxClients: 32,
		Obs: rec, ProbeIntervalSec: 0.5,
	}
}

func TestSimulateWithObsEmitsStreams(t *testing.T) {
	cfg := Config{Server: platform.Desk()}
	p := workload.WebsearchProfile()
	sink := obs.NewSink()
	res, err := cfg.Simulate(workload.FixedGenerator{P: p}, obsTestOptions(sink))
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput = %g", res.Throughput)
	}
	for _, name := range []string{
		"util.cpu", "util.disk", "util.net",
		"qlen.cpu", "des.heap_depth", "des.events_per_sec",
	} {
		if s := sink.SeriesByName(name); s == nil || len(s.Points) == 0 {
			t.Fatalf("series %q missing or empty (have %v)", name, sink.SeriesNames())
		}
	}
	if n := sink.EventCount("request"); n == 0 {
		t.Fatal("no request events recorded")
	}
	if sink.CounterValue("requests") == 0 || sink.CounterValue("des.events") == 0 {
		t.Fatal("request / des.events counters missing")
	}
	if h := sink.HistByName("latency_sec"); h == nil || h.Count() == 0 {
		t.Fatal("latency histogram missing")
	}
	if h := sink.HistByName("demand.cpu_ref_sec"); h == nil || h.Count() == 0 {
		t.Fatal("demand histogram missing (generator not instrumented)")
	}
}

// TestObsDoesNotChangeResult pins the replay design: attaching a
// recorder must leave every reported number untouched.
func TestObsDoesNotChangeResult(t *testing.T) {
	cfg := Config{Server: platform.Desk()}
	p := workload.WebsearchProfile()
	gen := workload.FixedGenerator{P: p}

	plain, err := cfg.Simulate(gen, obsTestOptions(nil))
	if err != nil {
		t.Fatal(err)
	}
	probed, err := cfg.Simulate(gen, obsTestOptions(obs.NewSink()))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Throughput != probed.Throughput || plain.Clients != probed.Clients ||
		plain.P95Latency != probed.P95Latency || plain.MeanLatency != probed.MeanLatency {
		t.Fatalf("obs changed the result:\nplain  %+v\nprobed %+v", plain, probed)
	}
}

// TestObsDeterministicExport is the package-level half of the
// acceptance criterion: same seed, byte-identical JSONL.
func TestObsDeterministicExport(t *testing.T) {
	run := func() []byte {
		cfg := Config{Server: platform.Desk()}
		p := workload.WebsearchProfile()
		sink := obs.NewSink()
		if _, err := cfg.Simulate(workload.FixedGenerator{P: p}, obsTestOptions(sink)); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sink.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("two runs with the same seed exported different bytes")
	}
}

func TestBatchSimulateWithObs(t *testing.T) {
	cfg := Config{Server: platform.Desk()}
	p := workload.MapReduceWCProfile()
	p.JobRequests = 200
	sink := obs.NewSink()
	opt := SimOptions{Seed: 3, WarmupSec: 1, MeasureSec: 1, MaxClients: 8, Obs: sink}
	res, err := cfg.Simulate(workload.FixedGenerator{P: p}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTime <= 0 {
		t.Fatalf("exec time = %g", res.ExecTime)
	}
	if got := sink.CounterValue("requests"); got != 200 {
		t.Fatalf("requests counter = %d, want 200", got)
	}
	if s := sink.SeriesByName("util.cpu"); s == nil || len(s.Points) == 0 {
		t.Fatal("batch run recorded no utilization timeline")
	}
}

// TestRebindLeavesEarlierSink: a trial ctx run into sink A and then
// into sink B leaves A exactly as its own run left it, and fills B as
// a fresh ctx would: bind drops the population's sink handles, so the
// second run resolves its own. The load violates QoS, so every handle,
// qos_violations included, is resolved in both runs.
func TestRebindLeavesEarlierSink(t *testing.T) {
	cfg := Config{Server: platform.Desk()}
	p := workload.WebsearchProfile()
	gen := workload.FixedGenerator{P: p}
	dm := cfg.demandModelFor(p)
	opt := obsTestOptions(nil)
	export := func(s *obs.Sink) []byte {
		var b bytes.Buffer
		if err := s.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	const clients = 256
	ctx := newTrialCtx(cfg, dm)
	a, b := obs.NewSink(), obs.NewSink()
	ctx.run(gen, p, clients, opt, 5, part{rec: a})
	if a.CounterValue("qos_violations") == 0 {
		t.Fatalf("no QoS violation at %d clients; the test needs one", clients)
	}
	before := export(a)
	ctx.run(gen, p, clients, opt, 5, part{rec: b})
	if !bytes.Equal(export(a), before) {
		t.Fatal("the second run wrote into the first run's sink")
	}
	fresh := obs.NewSink()
	newTrialCtx(cfg, dm).run(gen, p, clients, opt, 5, part{rec: fresh})
	if !bytes.Equal(export(b), export(fresh)) {
		t.Fatal("a rebound ctx's sink differs from a fresh ctx's")
	}
}

// TestRackLiveSinks: a 2x2 rack's OnProbeTick hands over every part's
// sink, the enclosures' then the rack-global one, so a live reader sees
// the run's requests mid-run, before the parts fold into Obs at its end.
func TestRackLiveSinks(t *testing.T) {
	cfg := Config{Server: platform.Desk()}
	sink := obs.NewSink()
	opt := obsTestOptions(sink)
	opt.Topology = &ShardedTopology{Enclosures: 2, BoardsPerEnclosure: 2}
	horizon := opt.WarmupSec + opt.MeasureSec
	mid := int64(-1)
	opt.OnProbeTick = func(now float64, h LiveHandles) {
		if len(h.Obs) != 3 {
			t.Fatalf("OnProbeTick sinks = %d, want 3 (2 enclosures + rack-global)", len(h.Obs))
		}
		if mid >= 0 || now < horizon/2 {
			return
		}
		raw, err := obs.Snapshot(obs.Progress{}, h.Obs...)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Counters map[string]int64 `json:"counters"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		mid = doc.Counters["requests"]
		if n := sink.CounterValue("requests"); n != 0 {
			t.Errorf("Obs holds %d requests mid-run; the parts should fold into it only at the end", n)
		}
	}
	if _, err := cfg.Simulate(workload.FixedGenerator{P: workload.WebsearchProfile()}, opt); err != nil {
		t.Fatal(err)
	}
	if final := sink.CounterValue("requests"); mid <= 0 || mid >= final {
		t.Fatalf("live requests mid-run = %d, want in (0, %d), the run's total", mid, final)
	}
}
