package des

import (
	"fmt"
	"strings"

	"warehousesim/internal/obs"
)

// Probes periodically samples kernel and resource state into an
// *obs.Sink, producing the utilization / queue-length / event-rate
// timelines behind every instrumented run:
//
//   - "des.heap_depth"      pending events at each tick
//   - "des.events_per_sec"  events fired per simulated second since the
//     previous tick (probe ticks included; one tick adds one event)
//   - "util.<resource>"     time-weighted busy fraction over the tick
//   - "qlen.<resource>"     time-weighted queue length over the tick
//
// Each utilization sample also goes to OnUtil, typed, when it is set.
// The series handles and OnUtil's class ids are resolved at a watched
// resource's first tick, so a tick looks up no name and a sampler that
// never ticks adds no series. Once started, a sampler ticks for as
// long as its Sim runs.
// Probing only ever schedules its own tick events and reads state, so an
// instrumented run's model trajectory is identical to an uninstrumented
// one under the same seed — probes observe, they never perturb.
type Probes struct {
	sim      *Sim
	rec      *obs.Sink
	interval Time
	tickFn   Action // p.tick, bound once so rescheduling allocates nothing

	lastFired   uint64
	depth, rate *obs.Series // the kernel gauges' handles
	watched     []watchedResource

	// OnTick, when non-nil, runs at the end of every probe tick with
	// the current simulated time. It is the live-introspection seam:
	// the hook may read simulation state and publish snapshots, but it
	// must never schedule events or sample randomness — the same
	// observe-don't-perturb contract the sink's emitters obey.
	OnTick func(now float64)

	// OnUtil, when non-nil, receives each watched resource's
	// utilization sample at every tick, right after its "util." gauge,
	// with the id OnUtil gave the resource's class: its name up to the
	// first '.', so "cpu.e3.b1" is class "cpu". It is the windowed
	// planes' utilization feed, under the same observe-don't-perturb
	// contract as OnTick. Set it before Start.
	OnUtil UtilFeed

	// OmitKernel suppresses the kernel-wide gauges (des.heap_depth,
	// des.events_per_sec), keeping only the per-resource series. The
	// sharded rack model sets it: heap depth and event rate are
	// per-shard quantities that depend on the partitioning, so they
	// would break the partition-independent export that the shards-1
	// vs shards-N byte-equivalence gate compares. Set before Start.
	OmitKernel bool
}

// UtilFeed takes Probes' utilization samples: Class gives a resource
// class its id, once per watched resource, and SampleUtil receives
// every sample of the class by that id.
type UtilFeed interface {
	Class(name string) int
	SampleUtil(class int, at, util float64)
}

type watchedResource struct {
	r          *Resource
	util, qlen *obs.Series // nil until the first tick
	class      int         // OnUtil's id of the class
	lastBusy   float64
	lastQueue  float64
}

// NewProbes creates a sampler attached to sim emitting into rec every
// interval of simulated time. Call Watch to add resources, then Start.
// A nil rec makes a sampler that never starts.
func NewProbes(sim *Sim, rec *obs.Sink, interval Time) *Probes {
	if interval <= 0 {
		panic(fmt.Sprintf("des: probe interval must be positive, got %v", interval))
	}
	p := &Probes{sim: sim, rec: rec, interval: interval}
	p.tickFn = p.tick
	return p
}

// Watch adds resources to the sampled set, growing it once per call.
// Their utilization and queue-length series are named after
// Resource.Name.
func (p *Probes) Watch(resources ...*Resource) {
	if n := len(p.watched) + len(resources); n > cap(p.watched) {
		w := make([]watchedResource, len(p.watched), n)
		copy(w, p.watched)
		p.watched = w
	}
	for _, r := range resources {
		busy, queue := r.Integrals()
		p.watched = append(p.watched, watchedResource{r: r, lastBusy: busy, lastQueue: queue})
	}
}

// resolve looks up w's series handles and class id, at its first tick.
func (p *Probes) resolve(w *watchedResource) {
	name := w.r.Name()
	w.util, w.qlen = p.rec.Series("util."+name), p.rec.Series("qlen."+name)
	if p.OnUtil != nil {
		w.class = p.OnUtil.Class(resourceClass(name))
	}
}

// resourceClass is the class of a resource named name: the name up to
// its first '.', or the whole name when it has none.
func resourceClass(name string) string {
	class, _, _ := strings.Cut(name, ".")
	return class
}

// Start schedules the first tick one interval from now. From then on
// the sampler ticks for as long as its Sim runs: each tick schedules
// the next, and nothing cancels it, so a run that ends with Stop or a
// horizon leaves one tick queued until the Sim is Reset or dropped.
// Call it once.
func (p *Probes) Start() {
	if p.rec == nil {
		return
	}
	p.lastFired = p.sim.Fired()
	p.sim.Schedule(p.interval, p.tickFn)
}

func (p *Probes) tick() {
	now := float64(p.sim.Now())
	dt := float64(p.interval)

	if !p.OmitKernel {
		if p.depth == nil {
			p.depth, p.rate = p.rec.Series("des.heap_depth"), p.rec.Series("des.events_per_sec")
		}
		p.depth.Add(now, float64(p.sim.Pending()))
		fired := p.sim.Fired()
		p.rate.Add(now, float64(fired-p.lastFired)/dt)
		p.lastFired = fired
	}

	for i := range p.watched {
		w := &p.watched[i]
		if w.util == nil {
			p.resolve(w)
		}
		busy, queue := w.r.Integrals()
		db, dq := busy-w.lastBusy, queue-w.lastQueue
		if db < 0 || dq < 0 {
			// ResetWindow zeroed the integrals mid-interval; the tick
			// covers only the post-reset portion.
			db, dq = busy, queue
		}
		w.lastBusy, w.lastQueue = busy, queue
		util := db / (dt * float64(w.r.Servers()))
		w.util.Add(now, util)
		if p.OnUtil != nil {
			p.OnUtil.SampleUtil(w.class, now, util)
		}
		w.qlen.Add(now, dq/dt)
	}

	if p.OnTick != nil {
		p.OnTick(now)
	}

	p.sim.Schedule(p.interval, p.tickFn)
}
