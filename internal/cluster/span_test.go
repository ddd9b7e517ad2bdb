package cluster

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"warehousesim/internal/obs"
	"warehousesim/internal/obs/span"
	"warehousesim/internal/platform"
	"warehousesim/internal/workload"
)

func tracedTestOptions(rec *obs.Sink, every int64) SimOptions {
	o := obsTestOptions(rec)
	o.TraceEvery = every
	return o
}

// spanCase is one engine shape the span tests drive: the flat server
// or a 2x2 rack on two shards, with or without remote memory.
type spanCase struct {
	name string
	cfg  Config
	p    workload.Profile
	topo *ShardedTopology
}

func spanCases() []spanCase {
	var cs []spanCase
	for _, ms := range []float64{0, 0.2} {
		cfg := Config{Server: platform.Desk(), MemSlowdown: ms}
		cs = append(cs,
			spanCase{fmt.Sprintf("flat/mem%g", ms), cfg, workload.WebsearchProfile(), nil},
			spanCase{fmt.Sprintf("rack/mem%g", ms), cfg, workload.WebsearchProfile(),
				&ShardedTopology{Enclosures: 2, BoardsPerEnclosure: 2, Shards: 2}})
	}
	return cs
}

// run simulates the case with the given recorder and trace stride.
func (c spanCase) run(t *testing.T, rec *obs.Sink, every int64) Result {
	t.Helper()
	opt := tracedTestOptions(rec, every)
	if c.topo != nil {
		opt.Topology = c.topo
	}
	res, err := c.cfg.Simulate(workload.FixedGenerator{P: c.p}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTracingDoesNotChangeResult extends the observe-don't-perturb rule
// to span tracing: a traced request must follow the exact trajectory an
// untraced one would, on the flat server, a flat batch job and the rack.
// The traced run must match a recorded untraced run, and for
// interactive runs an unrecorded one too. (An unrecorded flat batch run
// reports its utilization over the open horizon rather than the job's
// span — a recording difference ROADMAP.md tracks.)
func TestTracingDoesNotChangeResult(t *testing.T) {
	batch := workload.MapReduceWCProfile()
	batch.JobRequests = 200
	cases := append(spanCases(),
		spanCase{"flat/batch", Config{Server: platform.Desk(), MemSlowdown: 0.2}, batch, nil},
		spanCase{"rack/batch", Config{Server: platform.Desk(), MemSlowdown: 0.2}, batch,
			&ShardedTopology{Enclosures: 2, BoardsPerEnclosure: 2, Shards: 2}})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			traced := c.run(t, obs.NewSink(), 1)
			plain := []Result{c.run(t, obs.NewSink(), 0)}
			if !c.p.Batch {
				plain = append(plain, c.run(t, nil, 0))
			}
			for _, p := range plain {
				if !reflect.DeepEqual(p, traced) {
					t.Fatalf("tracing changed the result:\nplain  %+v\ntraced %+v", p, traced)
				}
			}
		})
	}
}

// TestSpansReconcileWithLatencies is the acceptance criterion, on both
// engines: every root span matches a recorded request event — its
// duration is bit-identical to that request's latency_sec — the direct
// children of each root tile it (flat swaps nest under cpu service,
// rack swaps are direct children), every root is its own request in
// the attribution, and the attribution's shares sum to 100% with SAN
// time counted as disk.
func TestSpansReconcileWithLatencies(t *testing.T) {
	for _, c := range spanCases() {
		t.Run(c.name, func(t *testing.T) {
			sink := obs.NewSink()
			c.run(t, sink, 1)
			checkSpansReconcile(t, sink)
		})
	}
}

func checkSpansReconcile(t *testing.T, sink *obs.Sink) {
	t.Helper()
	// Latency multiset from the request event stream (exact float64 keys:
	// both numbers come from the same des.Time arithmetic).
	latencies := map[float64]int{}
	for _, e := range sink.Events() {
		if e.Stream != "request" {
			continue
		}
		for _, f := range e.Fields {
			if f.Key == "latency_sec" {
				latencies[f.Num]++
			}
		}
	}
	if len(latencies) == 0 {
		t.Fatal("no request events recorded")
	}

	spans := span.Decoded(sink)
	rootDur := map[int64]float64{} // root span id -> duration
	var san int
	for _, s := range spans {
		if s.Res == "san" {
			san++
		}
		if s.Kind != span.KindRequest {
			continue
		}
		if latencies[s.Dur] == 0 {
			t.Fatalf("root span of req %d has dur %g matching no recorded latency", s.Req, s.Dur)
		}
		latencies[s.Dur]--
		rootDur[s.ID] = s.Dur
	}
	roots := len(rootDur)
	if roots == 0 {
		t.Fatal("no root spans")
	}
	childSum := map[int64]float64{}
	for _, s := range spans {
		if _, ok := rootDur[s.Parent]; ok {
			childSum[s.Parent] += s.Dur
		}
	}
	for id, want := range rootDur {
		if got := childSum[id]; math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("children of root %d sum to %g, root lasted %g", id, got, want)
		}
	}

	attr := span.Analyze(sink)
	if attr.Requests != roots {
		t.Fatalf("attribution saw %d requests, spans have %d roots", attr.Requests, roots)
	}
	var shares, disk float64
	for _, r := range attr.Rows {
		shares += r.Share
		if r.Category == span.CatDisk {
			disk = r.Share
		}
	}
	if math.Abs(shares-1) > 1e-9 {
		t.Fatalf("attribution shares sum to %g, want 1", shares)
	}
	if math.Abs(attr.TotalSec-attr.RootSec) > 1e-6*attr.RootSec {
		t.Fatalf("attributed %g sec but roots lasted %g sec", attr.TotalSec, attr.RootSec)
	}
	if san > 0 && disk <= 0 {
		t.Fatalf("%d SAN spans but disk share %g", san, disk)
	}
}

// TestTraceEverySampling pins the deterministic sampling rule: only
// arrival indices divisible by the stride are traced, and a coarser
// stride is a subset of a finer one.
func TestTraceEverySampling(t *testing.T) {
	run := func(every int64) []span.Span {
		cfg := Config{Server: platform.Desk()}
		sink := obs.NewSink()
		if _, err := cfg.Simulate(workload.FixedGenerator{P: workload.WebsearchProfile()},
			tracedTestOptions(sink, every)); err != nil {
			t.Fatal(err)
		}
		return span.Decoded(sink)
	}
	all, sampled := run(1), run(5)
	if len(all) == 0 || len(sampled) == 0 {
		t.Fatal("no spans recorded")
	}
	if len(sampled) >= len(all) {
		t.Fatalf("stride 5 recorded %d spans, stride 1 recorded %d", len(sampled), len(all))
	}
	reqs := map[int64]bool{}
	for _, s := range sampled {
		if s.Req%5 != 0 {
			t.Fatalf("stride-5 trace contains req %d", s.Req)
		}
		reqs[s.Req] = true
	}
	if len(reqs) < 2 {
		t.Fatal("stride-5 trace covers fewer than 2 requests")
	}
}

// TestTracedExportDeterministic is the tracing half of the same-seed
// byte-identical criterion, covering the span stream and both derived
// artifacts.
func TestTracedExportDeterministic(t *testing.T) {
	run := func() (jsonl, trace, csv []byte) {
		cfg := Config{Server: platform.Desk()}
		sink := obs.NewSink()
		if _, err := cfg.Simulate(workload.FixedGenerator{P: workload.WebsearchProfile()},
			tracedTestOptions(sink, 2)); err != nil {
			t.Fatal(err)
		}
		var a, b, c bytes.Buffer
		if err := sink.WriteJSONL(&a); err != nil {
			t.Fatal(err)
		}
		if err := span.WriteTrace(&b, sink); err != nil {
			t.Fatal(err)
		}
		if err := span.Analyze(sink).WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		return a.Bytes(), b.Bytes(), c.Bytes()
	}
	j1, t1, c1 := run()
	j2, t2, c2 := run()
	if !bytes.Equal(j1, j2) {
		t.Fatal("span JSONL differs across same-seed runs")
	}
	if !bytes.Equal(t1, t2) {
		t.Fatal("Perfetto trace differs across same-seed runs")
	}
	if !bytes.Equal(c1, c2) {
		t.Fatal("attribution CSV differs across same-seed runs")
	}
}

// TestBatchTracing covers the batch scheduler path: spans record, the
// remote-memory share appears when the config has a memory slowdown,
// and attribution still tiles.
func TestBatchTracing(t *testing.T) {
	cfg := Config{Server: platform.Desk(), MemSlowdown: 0.2}
	p := workload.MapReduceWCProfile()
	p.JobRequests = 200
	sink := obs.NewSink()
	opt := SimOptions{Seed: 3, WarmupSec: 1, MeasureSec: 1, MaxClients: 8, Obs: sink, TraceEvery: 1}
	if _, err := cfg.Simulate(workload.FixedGenerator{P: p}, opt); err != nil {
		t.Fatal(err)
	}
	spans := span.Decoded(sink)
	if len(spans) == 0 {
		t.Fatal("batch run recorded no spans")
	}
	var swaps int
	for _, s := range spans {
		if s.Kind == span.KindSwap {
			swaps++
		}
	}
	if swaps == 0 {
		t.Fatal("MemSlowdown > 0 but no swap spans recorded")
	}
	attr := span.Analyze(sink)
	if attr.Requests == 0 {
		t.Fatal("attribution analyzed no requests")
	}
	var rm float64
	for _, r := range attr.Rows {
		if r.Category == span.CatRemoteMem {
			rm = r.Share
		}
	}
	// MemSlowdown 0.2 puts 0.2/1.2 of cpu service time on remote memory.
	if rm <= 0 {
		t.Fatalf("remote-memory share = %g, want > 0", rm)
	}
}
