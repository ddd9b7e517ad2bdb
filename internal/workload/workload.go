// Package workload defines the common model all four benchmark
// generators share: per-request resource demands, the per-workload
// demand profile used by the analytic solver, and the Generator
// interface that the DES and the trace producers consume.
//
// Sub-packages implement the actual engines behind the four benchmarks
// of Table 1 (websearch, webmail, ytube, mapreduce); the engines sample
// concrete Request demands from real data structures (posting lists,
// mailboxes, video catalogs, map tasks).
package workload

import (
	"fmt"

	"warehousesim/internal/platform"
	"warehousesim/internal/stats"
)

// Class identifies the benchmark family a generator belongs to.
type Class int

// The benchmark suite of Table 1 (mapreduce has two variants, §2.1).
const (
	Websearch Class = iota
	Webmail
	Ytube
	MapReduceWC
	MapReduceWR
)

// String implements fmt.Stringer with the paper's names.
func (c Class) String() string {
	switch c {
	case Websearch:
		return "websearch"
	case Webmail:
		return "webmail"
	case Ytube:
		return "ytube"
	case MapReduceWC:
		return "mapred-wc"
	case MapReduceWR:
		return "mapred-wr"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Request is the resource demand of one benchmark request (one query,
// one mail action, one media chunk fetch, one map/reduce task).
type Request struct {
	// CPURefSec is CPU time on the reference core (srvr1's 2.6 GHz OoO
	// core with the workload's working set resident as it would be on
	// srvr1's 8 MB L2).
	CPURefSec float64
	// DiskOps is the number of disk positioning operations.
	DiskOps float64
	// DiskReadBytes and DiskWriteBytes are the transfer volumes.
	DiskReadBytes  float64
	DiskWriteBytes float64
	// NetBytes is the traffic on the server NIC for this request.
	NetBytes float64
}

// Profile is the analytic demand model for a workload: the means of the
// Request distribution plus platform-sensitivity and QoS metadata.
// Profiles are calibrated against the paper's Figure 2(c) relative
// performance matrix (see cmd/whcalib and DESIGN.md §2).
type Profile struct {
	Name  string
	Class Class

	// Mean per-request demands (same semantics as Request).
	CPURefSec      float64
	DiskOps        float64
	DiskReadBytes  float64
	DiskWriteBytes float64
	NetBytes       float64

	// CacheWorkingSetMB and CacheMissPenalty parameterize
	// platform.CPU.CoreSpeed for this workload.
	CacheWorkingSetMB float64
	CacheMissPenalty  float64
	// CoreScalingBeta models sub-linear multicore scaling: an m-core CPU
	// delivers m^beta core-equivalents of throughput.
	CoreScalingBeta float64

	// MemFootprintMB is the resident page working set (drives the
	// memory-blade experiments).
	MemFootprintMB float64
	// MemLocalityZipfS shapes the page-access popularity distribution.
	MemLocalityZipfS float64

	// QoSLatencySec is the per-request latency bound; 0 means a batch
	// workload with no interactive QoS. QoSPercentile is the quantile the
	// bound applies to (e.g. 0.95: ">95% of queries take <0.5s").
	QoSLatencySec float64
	QoSPercentile float64

	// ThinkTimeSec is the mean client think time between requests.
	ThinkTimeSec float64

	// Batch marks execution-time benchmarks (mapreduce). For batch
	// workloads Perf is reported as 1/execution-time, and JobRequests is
	// the number of tasks constituting one job.
	Batch       bool
	JobRequests int
}

// Validate reports structurally invalid profiles.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: profile has no name")
	case p.CPURefSec < 0 || p.DiskOps < 0 || p.DiskReadBytes < 0 || p.DiskWriteBytes < 0 || p.NetBytes < 0:
		return fmt.Errorf("workload %s: negative demand", p.Name)
	case p.CPURefSec == 0 && p.DiskOps == 0 && p.DiskReadBytes == 0 && p.NetBytes == 0:
		return fmt.Errorf("workload %s: no demand at all", p.Name)
	case p.CoreScalingBeta <= 0 || p.CoreScalingBeta > 1:
		return fmt.Errorf("workload %s: beta %g outside (0,1]", p.Name, p.CoreScalingBeta)
	case p.QoSLatencySec < 0:
		return fmt.Errorf("workload %s: negative QoS bound", p.Name)
	case p.QoSLatencySec > 0 && (p.QoSPercentile <= 0 || p.QoSPercentile >= 1):
		return fmt.Errorf("workload %s: QoS percentile %g outside (0,1)", p.Name, p.QoSPercentile)
	case p.Batch && p.JobRequests <= 0:
		return fmt.Errorf("workload %s: batch job with %d requests", p.Name, p.JobRequests)
	}
	return nil
}

// MeanRequest returns the profile's mean demands as a Request.
func (p Profile) MeanRequest() Request {
	return Request{
		CPURefSec:      p.CPURefSec,
		DiskOps:        p.DiskOps,
		DiskReadBytes:  p.DiskReadBytes,
		DiskWriteBytes: p.DiskWriteBytes,
		NetBytes:       p.NetBytes,
	}
}

// ReferenceCPU is the CPU all CPURefSec demands are expressed against:
// srvr1's core (§2.2 uses srvr1 as the 100% baseline).
func ReferenceCPU() platform.CPU { return platform.Srvr1().CPU }

// RelativeCoreSpeed returns how fast one core of cpu runs this workload
// relative to one reference core (1.0 for srvr1/srvr2).
func (p Profile) RelativeCoreSpeed(cpu platform.CPU) float64 {
	ref := ReferenceCPU().CoreSpeed(p.CacheWorkingSetMB, p.CacheMissPenalty)
	return cpu.CoreSpeed(p.CacheWorkingSetMB, p.CacheMissPenalty) / ref
}

// Generator produces the per-request demands for one benchmark. The
// concrete implementations live in the sub-packages and are backed by
// real engines (inverted index, mailbox store, video catalog, MapReduce
// runtime).
type Generator interface {
	// Profile returns the analytic demand profile (means + metadata).
	Profile() Profile
	// Sample draws the demands of one request.
	Sample(r *stats.RNG) Request
}

// StatelessGenerator marks generators whose Sample depends only on the
// RNG passed in — no internal mutable state — so one instance may serve
// concurrent single-threaded trials, each with its own RNG. The engine
// generators (websearch query caches, webmail session queues) are
// deliberately stateful and must NOT claim this.
type StatelessGenerator interface {
	Generator
	// Stateless is a marker method; implementations leave it empty.
	Stateless()
}

// IsStateless reports whether gen advertises stateless sampling.
func IsStateless(gen Generator) bool {
	_, ok := gen.(StatelessGenerator)
	return ok
}

// FixedGenerator adapts a bare Profile into a Generator whose samples
// are exponentially distributed around the profile means — used in tests
// and by the calibration tool, where no engine is needed.
type FixedGenerator struct {
	P Profile
	// Deterministic disables the exponential jitter.
	Deterministic bool
}

// Profile implements Generator.
func (g FixedGenerator) Profile() Profile { return g.P }

// Stateless implements StatelessGenerator: every sample depends only on
// the passed RNG.
func (FixedGenerator) Stateless() {}

// Sample implements Generator.
func (g FixedGenerator) Sample(r *stats.RNG) Request {
	m := g.P.MeanRequest()
	if g.Deterministic {
		return m
	}
	j := r.ExpFloat64()
	return Request{
		CPURefSec:      m.CPURefSec * j,
		DiskOps:        m.DiskOps,
		DiskReadBytes:  m.DiskReadBytes * j,
		DiskWriteBytes: m.DiskWriteBytes * j,
		NetBytes:       m.NetBytes * j,
	}
}
