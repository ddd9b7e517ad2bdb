package des

import (
	"fmt"
)

// Resource models a station with Servers identical servers and an
// unbounded FIFO queue — a CPU with m cores, a disk with one head, or a
// NIC serialized by bandwidth. Jobs request a service duration; when a
// server frees up the job occupies it for that duration and then the
// completion callback runs.
//
// The resource keeps time-weighted busy-server and queue-length
// integrals so utilization and mean queue length can be reported for any
// measurement window.
type Resource struct {
	name    string
	servers int
	sim     *Sim

	busy  int
	queue []pendingJob // FIFO of waiting jobs; live from head on
	head  int

	// time-weighted accounting
	lastStamp     Time
	busyIntegral  float64 // ∫ busy dt
	queueIntegral float64 // ∫ len(queue) dt
	completed     uint64
	windowStart   Time

	// pool of completion records: one is checked out per in-service job
	// and returned when the job's completion event fires, so steady-state
	// Submit traffic schedules without allocating a closure per job.
	pool []*completion
}

type pendingJob struct {
	service Time
	done    Action
}

// completion carries one in-service job's completion callback. The act
// method value is bound once when the record is first created; pooling
// the record therefore pools the closure too.
type completion struct {
	r    *Resource
	done Action
	act  Action
}

func (c *completion) fire() {
	r := c.r
	done := c.done
	c.done = nil
	r.pool = append(r.pool, c)
	r.stamp()
	r.busy--
	r.completed++
	if r.head < len(r.queue) {
		next := r.queue[r.head]
		r.queue[r.head] = pendingJob{}
		if r.head++; 2*r.head >= len(r.queue) {
			// Compact once the dead head outweighs the live tail, so
			// each waiting job is moved at most once on average.
			n := copy(r.queue, r.queue[r.head:])
			clear(r.queue[n:])
			r.queue, r.head = r.queue[:n], 0
		}
		r.start(next.service, next.done)
	}
	if done != nil {
		done()
	}
}

// NewResource creates a resource with the given number of servers
// attached to sim. Names appear in diagnostics.
func NewResource(sim *Sim, name string, servers int) *Resource {
	if servers <= 0 {
		panic(fmt.Sprintf("des: resource %q needs servers > 0, got %d", name, servers))
	}
	return &Resource{name: name, servers: servers, sim: sim}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Servers returns the number of servers.
func (r *Resource) Servers() int { return r.servers }

func (r *Resource) stamp() {
	now := r.sim.Now()
	dt := float64(now - r.lastStamp)
	if dt > 0 {
		r.busyIntegral += dt * float64(r.busy)
		r.queueIntegral += dt * float64(r.QueueLen())
		r.lastStamp = now
	} else if now > r.lastStamp {
		r.lastStamp = now
	}
}

// Submit enqueues a job needing service simulated-seconds of exclusive
// server time; done (may be nil) runs at completion. Zero-service jobs
// complete via the event queue, preserving FIFO ordering.
func (r *Resource) Submit(service Time, done Action) {
	if service < 0 {
		panic(fmt.Sprintf("des: resource %q got negative service %v", r.name, service))
	}
	r.stamp()
	if r.busy < r.servers {
		r.start(service, done)
		return
	}
	r.queue = append(r.queue, pendingJob{service: service, done: done})
}

func (r *Resource) start(service Time, done Action) {
	r.busy++
	var c *completion
	if n := len(r.pool); n > 0 {
		c = r.pool[n-1]
		r.pool[n-1] = nil
		r.pool = r.pool[:n-1]
	} else {
		c = &completion{r: r}
		c.act = c.fire
	}
	c.done = done
	r.sim.Schedule(service, c.act)
}

// QueueLen returns the number of jobs waiting (not in service).
func (r *Resource) QueueLen() int { return len(r.queue) - r.head }

// Completed returns the number of jobs finished since the last ResetWindow.
//
//whvet:allow testonly cmd/whperf, a separate module the load does not include, counts its resource ops with it
func (r *Resource) Completed() uint64 { return r.completed }

// Utilization returns the time-averaged fraction of servers busy over the
// current measurement window.
func (r *Resource) Utilization() float64 {
	r.stamp()
	dt := float64(r.sim.Now() - r.windowStart)
	if dt <= 0 {
		return 0
	}
	return r.busyIntegral / (dt * float64(r.servers))
}

// Integrals returns the time-weighted busy-server and queue-length
// integrals (∫ busy dt, ∫ len(queue) dt) accumulated since the last
// ResetWindow, stamped to the current simulation time. Probes difference
// successive snapshots to build per-interval utilization timelines.
func (r *Resource) Integrals() (busy, queue float64) {
	r.stamp()
	return r.busyIntegral, r.queueIntegral
}

// ResetWindow restarts utilization accounting at the current simulation
// time — used to discard warm-up transients before measuring.
func (r *Resource) ResetWindow() {
	r.stamp()
	r.windowStart = r.sim.Now()
	r.lastStamp = r.sim.Now()
	r.busyIntegral = 0
	r.queueIntegral = 0
	r.completed = 0
}

// Reset returns the resource to its initial idle state for reuse after
// Sim.Reset: no busy servers, an empty queue, and zeroed accounting.
// The queue backing array and the completion-record pool are retained.
// Completion records checked out by jobs that were in flight when the
// kernel was reset are abandoned to the garbage collector; the pool
// refills lazily.
func (r *Resource) Reset() {
	clear(r.queue)
	r.queue, r.head = r.queue[:0], 0
	r.busy = 0
	r.lastStamp, r.windowStart = 0, 0
	r.busyIntegral, r.queueIntegral = 0, 0
	r.completed = 0
}
