package cluster

import (
	"fmt"
	"math"

	"warehousesim/internal/obs/energy"
	"warehousesim/internal/obs/window"
	"warehousesim/internal/workload"
)

// Result is the outcome of evaluating one (configuration, workload)
// pair: the sustained throughput under QoS and its supporting detail.
type Result struct {
	// Throughput is the sustained request rate (requests/second).
	Throughput float64
	// Perf is the paper's performance number: Throughput for interactive
	// workloads, 1/ExecTime (jobs/second) for batch workloads.
	Perf float64
	// QoSMet reports whether the QoS constraint held; false means the
	// platform cannot meet the bound even unloaded and Throughput is the
	// best-effort rate.
	QoSMet bool
	// MeanLatency and P95Latency describe response time at the operating
	// point (interactive workloads only).
	MeanLatency, P95Latency float64
	// ExecTime is the batch job execution time (batch workloads only).
	ExecTime float64
	// Bottleneck names the resource limiting throughput.
	Bottleneck string
	// Utilization per station ("cpu", "disk", "net") at the operating
	// point.
	Utilization map[string]float64
	// Clients is the sustained concurrent client count (DES runs only).
	Clients int
	// SLO is the merged windowed-SLO collector of an instrumented DES run
	// configured with SimOptions.SLOWindowSec (nil otherwise); SLOParts
	// are the per-partition collectors behind it — the enclosures plus
	// the rack-global part for Topology runs, nil for the flat model —
	// used to attribute episode blast radius in the export.
	SLO      *window.Collector
	SLOParts []*window.Collector
	// Energy is the energy view of an instrumented DES run configured
	// with SimOptions.Energy (nil otherwise), over the merged window
	// collector: SLO itself when the two widths agree.
	Energy *energy.Collector
	// Fleet carries the per-rack breakdown of a FleetTopology run (nil
	// for single-rack and flat-model runs).
	Fleet *FleetBreakdown
}

// bestEffortUtil is the utilization at which throughput is reported when
// the QoS bound is unreachable even at zero load — the paper's client
// driver drives the system to "the highest level of throughput without
// overloading the servers" (§2.1), i.e. near saturation, and reports the
// QoS violations alongside.
const bestEffortUtil = 0.85

// erlangC returns the steady-state probability that an arriving job must
// queue in an M/M/m station at utilization rho, computed via the stable
// Erlang-B recurrence.
func erlangC(m int, rho float64) float64 {
	if rho >= 1 {
		return 1
	}
	if rho <= 0 {
		return 0
	}
	a := float64(m) * rho
	b := 1.0
	for k := 1; k <= m; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b / (1 - rho*(1-b))
}

type station struct {
	name    string
	m       int
	service float64 // per-server service time
}

// capacity is the station's maximum throughput.
func (s station) capacity() float64 {
	if s.service <= 0 {
		return math.Inf(1)
	}
	return float64(s.m) / s.service
}

// respTime returns the station's mean response time at arrival rate
// lambda, or +Inf when saturated.
func (s station) respTime(lambda float64) float64 {
	if s.service <= 0 {
		return 0
	}
	rho := lambda * s.service / float64(s.m)
	if rho >= 1 {
		return math.Inf(1)
	}
	c := erlangC(s.m, rho)
	w := c / (float64(s.m)/s.service - lambda)
	return s.service + w
}

func (c Config) stations(p workload.Profile) []station {
	d := c.MeanDemands(p)
	return []station{
		{name: "cpu", m: c.Server.CPU.Cores(), service: d.CPUSec},
		{name: "disk", m: 1, service: d.DiskSec},
		{name: "net", m: 1, service: d.NetSec},
	}
}

// network is the open queueing network of one configuration on one
// profile: its stations and the bottleneck that caps its throughput. It
// is the common model under Analyze and AnalyzeAt.
type network struct {
	sts        []station
	capMin     float64 // bottleneck capacity
	bottleneck string
}

// network validates the pair, builds its stations and finds the
// bottleneck.
func (c Config) network(p workload.Profile) (network, error) {
	if err := c.Validate(); err != nil {
		return network{}, err
	}
	if err := p.Validate(); err != nil {
		return network{}, err
	}
	n := network{sts: c.stations(p), capMin: math.Inf(1)}
	for _, s := range n.sts {
		if cap := s.capacity(); cap < n.capMin {
			n.capMin = cap
			n.bottleneck = s.name
		}
	}
	if math.IsInf(n.capMin, 1) {
		return network{}, fmt.Errorf("cluster: workload %s has no demand on any station", p.Name)
	}
	return n, nil
}

// respTime is the mean end-to-end response time at arrival rate lambda:
// the sum of the station response times, +Inf when any is saturated.
func (n network) respTime(lambda float64) float64 {
	sum := 0.0
	for _, s := range n.sts {
		sum += s.respTime(lambda)
	}
	return sum
}

// utilization is each station's utilization at arrival rate lambda.
func (n network) utilization(lambda float64) map[string]float64 {
	u := map[string]float64{}
	for _, s := range n.sts {
		u[s.name] = lambda * s.service / float64(s.m)
	}
	return u
}

// qosTailFactor converts a mean response time into the percentile the
// QoS bound applies to, assuming an approximately exponential response
// tail (exact for M/M/1; slightly pessimistic for multi-stage pipelines,
// which the DES cross-validation quantifies).
//
// Percentiles outside (0,1) would yield a non-positive or infinite
// factor (log of a non-positive or unbounded argument). Profile
// validation rejects them before any model runs, but this is the one
// place the arithmetic would silently poison a result, so it clamps
// defensively to the paper's default 95th percentile.
func qosTailFactor(percentile float64) float64 {
	if percentile <= 0 || percentile >= 1 || math.IsNaN(percentile) {
		percentile = 0.95
	}
	return math.Log(1 / (1 - percentile))
}

// Analyze computes the QoS-constrained sustained throughput of the
// configuration on the workload using the open queueing-network
// approximation: each station is M/M/m, response time is the sum of
// station response times, and the operating point is the largest arrival
// rate whose QoS-percentile latency stays within the bound.
func (c Config) Analyze(p workload.Profile) (Result, error) {
	n, err := c.network(p)
	if err != nil {
		return Result{}, err
	}
	res := Result{Bottleneck: n.bottleneck}

	if p.Batch || p.QoSLatencySec == 0 {
		// Batch: the job keeps the machine saturated; throughput is the
		// bottleneck capacity.
		lambda := n.capMin
		res.Throughput = lambda
		res.QoSMet = true
		res.Utilization = n.utilization(lambda * 0.999)
		if p.Batch {
			res.ExecTime = float64(p.JobRequests) / lambda
			res.Perf = 1 / res.ExecTime
		} else {
			res.Perf = lambda
		}
		return res, nil
	}

	tail := qosTailFactor(p.QoSPercentile)
	zeroLoad := n.respTime(0)
	if zeroLoad*tail > p.QoSLatencySec {
		// QoS unreachable: report best-effort throughput with QoSMet
		// false, as the client driver would observe.
		lambda := bestEffortUtil * n.capMin
		res.Throughput = lambda
		res.Perf = lambda
		res.QoSMet = false
		res.MeanLatency = n.respTime(lambda)
		res.P95Latency = res.MeanLatency * tail
		res.Utilization = n.utilization(lambda)
		return res, nil
	}

	// Bisect the largest feasible arrival rate in (0, n.capMin).
	lo, hi := 0.0, n.capMin*(1-1e-9)
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if n.respTime(mid)*tail <= p.QoSLatencySec {
			lo = mid
		} else {
			hi = mid
		}
	}
	lambda := lo
	res.Throughput = lambda
	res.Perf = lambda
	res.QoSMet = true
	res.MeanLatency = n.respTime(lambda)
	res.P95Latency = res.MeanLatency * tail
	res.Utilization = n.utilization(lambda)
	return res, nil
}

// AnalyzeAt evaluates the analytic model at a fixed per-server arrival
// rate instead of solving for the operating point. The fleet hybrid uses
// it to stand in for cold racks at the load the balancer actually routed
// to them. Interactive profiles only: a batch rack is a single job, not
// an arrival stream, so a fixed-rate evaluation has no meaning there.
//
// At or beyond the bottleneck capacity the station equations diverge, so
// the result reports the saturated utilization profile with infinite
// latencies and QoSMet false rather than an error: an overloaded cold
// rack is an answer ("this placement violates QoS"), not a misuse.
func (c Config) AnalyzeAt(p workload.Profile, lambda float64) (Result, error) {
	n, err := c.network(p)
	if err != nil {
		return Result{}, err
	}
	if p.Batch {
		return Result{}, fmt.Errorf("cluster: AnalyzeAt models an arrival stream; batch profile %s has none", p.Name)
	}
	if lambda < 0 || math.IsNaN(lambda) {
		return Result{}, fmt.Errorf("cluster: AnalyzeAt needs a non-negative arrival rate, got %v", lambda)
	}
	res := Result{Bottleneck: n.bottleneck, Throughput: lambda, Perf: lambda, Utilization: n.utilization(lambda)}
	tail := qosTailFactor(p.QoSPercentile)
	if lambda >= n.capMin {
		res.MeanLatency = math.Inf(1)
		res.P95Latency = math.Inf(1)
		res.QoSMet = false
		return res, nil
	}
	res.MeanLatency = n.respTime(lambda)
	res.P95Latency = res.MeanLatency * tail
	if p.QoSLatencySec > 0 {
		// The 1e-9 relative slack keeps a rack loaded exactly at the
		// Analyze operating point (an 80-step bisection against this same
		// bound) from flipping QoSMet over float ulps.
		res.QoSMet = res.P95Latency <= p.QoSLatencySec*(1+1e-9)
	} else {
		res.QoSMet = true
	}
	return res, nil
}
