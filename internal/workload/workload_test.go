package workload

import (
	"math"
	"testing"

	"warehousesim/internal/platform"
	"warehousesim/internal/stats"
)

func validProfile() Profile {
	return Profile{
		Name: "p", Class: Websearch,
		CPURefSec: 0.01, DiskOps: 1, DiskReadBytes: 1e5, NetBytes: 1e4,
		CacheWorkingSetMB: 2, CacheMissPenalty: 1, CoreScalingBeta: 0.8,
		QoSLatencySec: 0.5, QoSPercentile: 0.95, ThinkTimeSec: 1,
	}
}

func TestClassStrings(t *testing.T) {
	want := map[Class]string{
		Websearch: "websearch", Webmail: "webmail", Ytube: "ytube",
		MapReduceWC: "mapred-wc", MapReduceWR: "mapred-wr",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), s)
		}
	}
}

func TestProfileValidate(t *testing.T) {
	if err := validProfile().Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	bads := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.CPURefSec = -1 },
		func(p *Profile) { p.CPURefSec, p.DiskOps, p.DiskReadBytes, p.NetBytes = 0, 0, 0, 0 },
		func(p *Profile) { p.CoreScalingBeta = 0 },
		func(p *Profile) { p.CoreScalingBeta = 1.5 },
		func(p *Profile) { p.QoSLatencySec = -1 },
		func(p *Profile) { p.QoSPercentile = 0 },
		func(p *Profile) { p.Batch, p.JobRequests = true, 0 },
	}
	for i, mutate := range bads {
		p := validProfile()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestBatchWithoutQoSValidates(t *testing.T) {
	p := validProfile()
	p.Batch = true
	p.JobRequests = 100
	p.QoSLatencySec = 0
	p.QoSPercentile = 0
	if err := p.Validate(); err != nil {
		t.Fatalf("batch profile rejected: %v", err)
	}
}

func TestRelativeCoreSpeedReference(t *testing.T) {
	p := validProfile()
	if got := p.RelativeCoreSpeed(platform.Srvr1().CPU); math.Abs(got-1) > 1e-12 {
		t.Errorf("srvr1 relative speed = %g, want 1", got)
	}
	if got := p.RelativeCoreSpeed(platform.Emb2().CPU); got >= 0.5 {
		t.Errorf("emb2 relative speed = %g, want well below srvr1", got)
	}
}

func TestEffectiveCores(t *testing.T) {
	p := validProfile()
	p.CoreScalingBeta = 1
	if got := p.effectiveCores(8); got != 8 {
		t.Errorf("beta=1 effective cores = %g", got)
	}
	p.CoreScalingBeta = 0.5
	if got := p.effectiveCores(4); math.Abs(got-2) > 1e-12 {
		t.Errorf("beta=0.5, 4 cores = %g, want 2", got)
	}
}

func TestMeanRequestRoundTrip(t *testing.T) {
	p := validProfile()
	r := p.MeanRequest()
	if r.CPURefSec != p.CPURefSec || r.DiskOps != p.DiskOps ||
		r.DiskReadBytes != p.DiskReadBytes || r.NetBytes != p.NetBytes {
		t.Error("MeanRequest dropped fields")
	}
}

func TestFixedGeneratorDeterministic(t *testing.T) {
	g := FixedGenerator{P: validProfile(), Deterministic: true}
	r := stats.NewRNG(1)
	a, b := g.Sample(r), g.Sample(r)
	if a != b || a.CPURefSec != validProfile().CPURefSec {
		t.Error("deterministic generator varied")
	}
}

func TestFixedGeneratorMeansConverge(t *testing.T) {
	p := validProfile()
	g := FixedGenerator{P: p}
	r := stats.NewRNG(2)
	var cpu stats.Summary
	for i := 0; i < 100000; i++ {
		cpu.Add(g.Sample(r).CPURefSec)
	}
	if m := cpu.Mean(); math.Abs(m-p.CPURefSec)/p.CPURefSec > 0.03 {
		t.Errorf("sampled CPU mean %g, profile %g", m, p.CPURefSec)
	}
}

func TestIsStateless(t *testing.T) {
	if !IsStateless(FixedGenerator{P: validProfile()}) {
		t.Error("FixedGenerator must carry the stateless marker")
	}
	if IsStateless(statefulTestGen{}) {
		t.Error("a generator without the marker must not report stateless")
	}
	if IsStateless(nil) {
		t.Error("nil generator must not report stateless")
	}
}

// statefulTestGen deliberately lacks the Stateless marker method.
type statefulTestGen struct{}

func (statefulTestGen) Profile() Profile            { return validProfile() }
func (statefulTestGen) Sample(r *stats.RNG) Request { return Request{} }

// effectiveCores returns the core-equivalents an m-core CPU contributes
// under this workload's scaling exponent: the meaning of
// CoreScalingBeta, which the cluster model applies as a per-request
// demand inflation of cores^(1-beta).
func (p Profile) effectiveCores(cores int) float64 {
	return math.Pow(float64(cores), p.CoreScalingBeta)
}
