package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"warehousesim/internal/platform"
	"warehousesim/internal/workload"
)

// testProfile is a synthetic interactive workload used across tests.
func testProfile() workload.Profile {
	return workload.Profile{
		Name: "test-interactive", Class: workload.Websearch,
		CPURefSec: 0.020, DiskOps: 0.5, DiskReadBytes: 100e3, NetBytes: 20e3,
		CacheWorkingSetMB: 2, CacheMissPenalty: 1, CoreScalingBeta: 0.85,
		QoSLatencySec: 0.5, QoSPercentile: 0.95, ThinkTimeSec: 1,
	}
}

func batchProfile() workload.Profile {
	return workload.Profile{
		Name: "test-batch", Class: workload.MapReduceWC,
		CPURefSec: 0.050, DiskOps: 1, DiskReadBytes: 2e6, NetBytes: 50e3,
		CacheWorkingSetMB: 1, CacheMissPenalty: 0.8, CoreScalingBeta: 0.9,
		ThinkTimeSec: 0, Batch: true, JobRequests: 2000,
	}
}

func TestErlangCBoundaries(t *testing.T) {
	if got := erlangC(4, 0); got != 0 {
		t.Errorf("erlangC(4,0) = %g", got)
	}
	if got := erlangC(4, 1); got != 1 {
		t.Errorf("erlangC(4,1) = %g", got)
	}
	// Single server: C = rho.
	for _, rho := range []float64{0.1, 0.5, 0.9} {
		if got := erlangC(1, rho); math.Abs(got-rho) > 1e-12 {
			t.Errorf("erlangC(1,%g) = %g, want %g", rho, got, rho)
		}
	}
}

func TestErlangCKnownValue(t *testing.T) {
	// Hand-computed via the Erlang-B recurrence: m=4, a=3.2 (rho=0.8)
	// gives B=0.2282 and C = B/(1-rho(1-B)) = 0.5965.
	got := erlangC(4, 0.8)
	if math.Abs(got-0.5965) > 0.001 {
		t.Errorf("erlangC(4,0.8) = %g, want 0.5965", got)
	}
}

func TestErlangCMonotone(t *testing.T) {
	for m := 1; m <= 16; m *= 2 {
		prev := -1.0
		for rho := 0.05; rho < 1; rho += 0.05 {
			c := erlangC(m, rho)
			if c < prev {
				t.Fatalf("erlangC(%d,·) not monotone at rho=%g", m, rho)
			}
			prev = c
		}
	}
}

func TestAnalyzeProducesFeasibleOperatingPoint(t *testing.T) {
	cfg := Config{Server: platform.Srvr1()}
	res, err := cfg.Analyze(testProfile())
	if err != nil {
		t.Fatal(err)
	}
	if !res.QoSMet {
		t.Fatal("srvr1 cannot meet a 0.5s QoS on a 20ms request?")
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput = %g", res.Throughput)
	}
	if res.P95Latency > 0.5+1e-6 {
		t.Errorf("p95 = %g exceeds QoS", res.P95Latency)
	}
	for name, u := range res.Utilization {
		if u < 0 || u >= 1 {
			t.Errorf("utilization[%s] = %g", name, u)
		}
	}
	if res.Bottleneck == "" {
		t.Error("no bottleneck named")
	}
}

func TestAnalyzePlatformOrdering(t *testing.T) {
	// Faster platforms must sustain at least the throughput of slower
	// ones on the same interactive workload.
	p := testProfile()
	var prev float64 = math.Inf(1)
	for _, s := range platform.All() {
		res, err := Config{Server: s}.Analyze(p)
		if err != nil {
			t.Fatal(err)
		}
		if res.Throughput > prev*1.0001 {
			t.Errorf("%s throughput %g exceeds previous-tier %g", s.Name, res.Throughput, prev)
		}
		prev = res.Throughput
	}
}

func TestAnalyzeBatch(t *testing.T) {
	cfg := Config{Server: platform.Srvr2()}
	res, err := cfg.Analyze(batchProfile())
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTime <= 0 {
		t.Fatalf("exec time = %g", res.ExecTime)
	}
	if math.Abs(res.Perf-1/res.ExecTime) > 1e-12 {
		t.Errorf("batch perf %g != 1/exec %g", res.Perf, 1/res.ExecTime)
	}
	if !res.QoSMet {
		t.Error("batch workloads have no QoS to violate")
	}
}

func TestAnalyzeQoSUnreachable(t *testing.T) {
	p := testProfile()
	p.QoSLatencySec = 0.001 // impossible: service alone is ~25ms
	cfg := Config{Server: platform.Srvr1()}
	res, err := cfg.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.QoSMet {
		t.Error("impossible QoS reported as met")
	}
	if res.Throughput <= 0 {
		t.Error("best-effort throughput missing")
	}
}

func TestAnalyzeTighterQoSLowersThroughput(t *testing.T) {
	cfg := Config{Server: platform.Desk()}
	loose := testProfile()
	tight := testProfile()
	tight.QoSLatencySec = 0.15
	rl, err := cfg.Analyze(loose)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := cfg.Analyze(tight)
	if err != nil {
		t.Fatal(err)
	}
	if rt.QoSMet && rt.Throughput > rl.Throughput+1e-9 {
		t.Errorf("tighter QoS increased throughput: %g > %g", rt.Throughput, rl.Throughput)
	}
}

func TestAnalyzeMemorySlowdownReducesThroughput(t *testing.T) {
	p := testProfile()
	base, err := Config{Server: platform.Emb1()}.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Config{Server: platform.Emb1(), MemSlowdown: 0.05}.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Throughput >= base.Throughput {
		t.Errorf("memory slowdown did not reduce throughput: %g vs %g",
			slow.Throughput, base.Throughput)
	}
	// And the reduction should be modest (not more than ~3x the slowdown).
	drop := 1 - slow.Throughput/base.Throughput
	if drop > 0.15 {
		t.Errorf("5%% slowdown caused %.0f%% throughput drop", drop*100)
	}
}

func TestAnalyzeStorageSwapChangesBottleneck(t *testing.T) {
	p := testProfile()
	p.DiskOps = 2
	p.DiskReadBytes = 1e6
	slowDisk := Config{Server: platform.Emb1(), Storage: RemoteDisk{Disk: platform.DiskLaptop()}}
	res, err := slowDisk.Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bottleneck != "disk" {
		t.Errorf("2 ops on a 15ms SAN disk should be disk-bound, got %s", res.Bottleneck)
	}
}

func TestAnalyzeRejectsInvalid(t *testing.T) {
	p := testProfile()
	bad := Config{Server: platform.Srvr1(), MemSlowdown: 2}
	if _, err := bad.Analyze(p); err == nil {
		t.Error("invalid config accepted")
	}
	p.CoreScalingBeta = 0
	if _, err := (Config{Server: platform.Srvr1()}).Analyze(p); err == nil {
		t.Error("invalid profile accepted")
	}
	empty := workload.Profile{Name: "empty", CoreScalingBeta: 1}
	if _, err := (Config{Server: platform.Srvr1()}).Analyze(empty); err == nil {
		t.Error("zero-demand profile accepted")
	}
}

func TestDemandsForScalesWithPlatform(t *testing.T) {
	p := testProfile()
	req := p.MeanRequest()
	fast := Config{Server: platform.Srvr1()}.DemandsFor(p, req)
	slow := Config{Server: platform.Emb2()}.DemandsFor(p, req)
	if slow.CPUSec <= fast.CPUSec {
		t.Errorf("emb2 CPU demand %g not above srvr1 %g", slow.CPUSec, fast.CPUSec)
	}
	// NIC: srvr1 has 10GbE, emb2 1GbE.
	if math.Abs(slow.NetSec/fast.NetSec-10) > 1e-9 {
		t.Errorf("NIC ratio = %g, want 10", slow.NetSec/fast.NetSec)
	}
}

// Property: throughput is monotone non-increasing in memory slowdown.
func TestQuickThroughputMonotoneInSlowdown(t *testing.T) {
	p := testProfile()
	f := func(aRaw, bRaw float64) bool {
		a := math.Mod(math.Abs(aRaw), 0.5)
		b := a + math.Mod(math.Abs(bRaw), 0.5)
		ra, err1 := Config{Server: platform.Desk(), MemSlowdown: a}.Analyze(p)
		rb, err2 := Config{Server: platform.Desk(), MemSlowdown: b}.Analyze(p)
		if err1 != nil || err2 != nil {
			return false
		}
		return rb.Throughput <= ra.Throughput+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// qosTailFactor must stay finite and positive for any input: profile
// validation rejects percentiles outside (0,1) upstream, but the
// factor itself is the one place bad arithmetic would silently poison
// a throughput figure, so it clamps to the paper's default 95th.
func TestQoSTailFactorGuards(t *testing.T) {
	def := qosTailFactor(0.95)
	cases := []struct {
		name       string
		percentile float64
		want       float64
	}{
		{"p50", 0.5, math.Log(2)},
		{"p95", 0.95, def},
		{"p99", 0.99, math.Log(100)},
		{"zero", 0, def},
		{"one", 1, def},
		{"negative", -1, def},
		{"above one", 2, def},
		{"NaN", math.NaN(), def},
	}
	for _, c := range cases {
		got := qosTailFactor(c.percentile)
		if math.IsNaN(got) || math.IsInf(got, 0) || got <= 0 {
			t.Errorf("%s: qosTailFactor(%g) = %g, not finite positive", c.name, c.percentile, got)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: qosTailFactor(%g) = %g, want %g", c.name, c.percentile, got, c.want)
		}
	}
}

// TestValidateRejectsBadQoSPercentile: the profile layer refuses the
// inputs qosTailFactor would otherwise have to clamp.
func TestValidateRejectsBadQoSPercentile(t *testing.T) {
	for _, bad := range []float64{0, 1, -0.5, 1.5} {
		p := testProfile()
		p.QoSPercentile = bad
		if err := p.Validate(); err == nil {
			t.Errorf("Validate accepted QoSPercentile %g", bad)
		}
	}
}

// FuzzAnalyzeAt holds the fleet's analytic stand-in to the
// operating-point solver over generated QoS-bounded interactive
// profiles and core counts. AnalyzeAt at Analyze's throughput must
// reproduce Analyze's QoSMet, latencies and utilization bit for bit, and
// least-loaded routing of any cold-rack demand must conserve it and
// never load a rack past its cap. Profiles without a QoS bound are out
// of scope: Analyze then reports the bottleneck capacity, a load at
// which AnalyzeAt is saturated by design.
func FuzzAnalyzeAt(f *testing.F) {
	f.Add(0.020, 0.5, 100e3, 20e3, 0.5, 0.95, 0.85, uint8(4), uint8(3), uint8(8), 1.25)
	f.Add(0.002, 0.0, 0.0, 5e3, 0.05, 0.99, 1.0, uint8(0), uint8(0), uint8(1), 0.5)
	f.Add(0.001, 4.0, 2e6, 0.0, 0.2, 0.9, 0.5, uint8(15), uint8(63), uint8(40), 3.0)
	f.Add(0.5, 1.0, 1e6, 1e6, 0.01, 0.95, 0.7, uint8(2), uint8(7), uint8(2), 1.0) // QoS unreachable
	f.Fuzz(func(t *testing.T, cpuSec, diskOps, diskBytes, netBytes, qos, pct, beta float64, cores, cold, boards uint8, load float64) {
		p := testProfile()
		p.CPURefSec, p.DiskOps, p.DiskReadBytes, p.NetBytes = cpuSec, diskOps, diskBytes, netBytes
		p.QoSLatencySec, p.QoSPercentile, p.CoreScalingBeta = qos, pct, beta
		if !(p.QoSLatencySec > 0) || p.Validate() != nil {
			return
		}
		cfg := Config{Server: platform.Desk()}
		cfg.Server.CPU.Sockets, cfg.Server.CPU.CoresPerSocket = 1, 1+int(cores%16)
		ana, err := cfg.Analyze(p)
		if err != nil {
			return
		}
		at, err := cfg.AnalyzeAt(p, ana.Throughput)
		if err != nil {
			t.Fatalf("AnalyzeAt rejected Analyze's own operating point %g: %v", ana.Throughput, err)
		}
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		if at.QoSMet != ana.QoSMet || !same(at.MeanLatency, ana.MeanLatency) || !same(at.P95Latency, ana.P95Latency) {
			t.Fatalf("AnalyzeAt at %g: QoSMet %v mean %v p95 %v; Analyze: QoSMet %v mean %v p95 %v",
				ana.Throughput, at.QoSMet, at.MeanLatency, at.P95Latency, ana.QoSMet, ana.MeanLatency, ana.P95Latency)
		}
		if len(at.Utilization) != len(ana.Utilization) {
			t.Fatalf("utilization stations %v vs %v", at.Utilization, ana.Utilization)
		}
		for k, u := range ana.Utilization {
			if !same(at.Utilization[k], u) {
				t.Fatalf("utilization[%s] = %v, Analyze %v", k, at.Utilization[k], u)
			}
		}

		n := int(cold % 64)
		rackCap := ana.Throughput * float64(1+int(boards%64))
		perRack := rackCap * math.Min(math.Abs(load), 8)
		if math.IsNaN(perRack) {
			return
		}
		ll := FleetTopology{Balancer: BalancerLeastLoaded}
		assigned, unserved := ll.routeCold(n, perRack, rackCap)
		served := 0.0
		for i, a := range assigned {
			if a > rackCap+1e-12 {
				t.Fatalf("rack %d of %d assigned %v above its cap %v", i, n, a, rackCap)
			}
			served += a
		}
		if want := perRack * float64(n); math.Abs(served+unserved-want) > 1e-9*want {
			t.Fatalf("%d racks at %v each: served %v + unserved %v != %v", n, perRack, served, unserved, want)
		}
	})
}
