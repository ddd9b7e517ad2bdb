package cluster

import (
	"warehousesim/internal/des"
	"warehousesim/internal/des/shard"
	"warehousesim/internal/obs/span"
	"warehousesim/internal/stats"
)

// This file is the one station pipeline both engines run: the flat
// server and every rack board walk their requests through the same
// flow, issued by the same closed-loop client or batch task slot.
//
// The continuation-passing style of the DES kernel originally paid for
// itself in closures: every request allocated an issue closure, a
// completion closure, and a closure per stage. The records below hoist
// all of that captured state into structs whose continuation Actions
// are bound once, when the record is created, and reused for every
// subsequent request — so the steady-state request path allocates
// nothing. Same-seed trajectories, and therefore obs and attribution
// exports, are byte-identical run to run (pinned_test.go pins them).

// board is one server board's stations: cpu and NIC, a disk that is
// either the board's own or the rack's consolidated SAN, and on a rack
// with remote memory its enclosure's memory blade. The flat server is
// a board on its own heap with a local disk and no blade; a rack board
// lives on its enclosure's shard and reaches the blade and the SAN
// over the fabric.
type board struct {
	sim  *des.Sim
	pop  *population
	cpu  *des.Resource
	net  *des.Resource
	disk *des.Resource // the local disk, or the rack's SAN when sh is set
	// blade is the enclosure's memory blade (entity bladeEnt), nil
	// when the board has none. memFrac is the remote-memory share of
	// cpu service: a board with a blade serves it there; one without
	// folds it into cpu service and traces it as a nested swap span.
	blade    *des.Resource
	bladeEnt shard.EntityID
	memFrac  float64

	// Batch task state: the board's sampling stream and its tasks not
	// yet launched.
	rng       stats.RNG
	remaining int

	// Rack wiring, zero on the flat server: the board's shard (nil
	// means every station shares the board's heap), its entity id and
	// rack-global index, and its rack.
	sh     *shard.Shard
	ent    shard.EntityID
	global int
	r      *rackSim
}

// flatBoard binds the flat server to sim: one board with a local disk
// and no blade, whose requests come from pop.
func (c Config) flatBoard(sim *des.Sim, pop *population) *board {
	return &board{
		sim:     sim,
		pop:     pop,
		cpu:     des.NewResource(sim, "cpu", c.Server.CPU.Cores()),
		disk:    des.NewResource(sim, "disk", 1),
		net:     des.NewResource(sim, "net", 1),
		memFrac: c.memSwapFraction(),
	}
}

// utilization is the flat server's busy share per station over the
// current measurement window.
func (b *board) utilization() map[string]float64 {
	return map[string]float64{
		"cpu": b.cpu.Utilization(), "disk": b.disk.Utilization(), "net": b.net.Utilization(),
	}
}

// flow walks one request through its board's stages with bound-once
// continuations. Each stage is present or absent per board:
//
//   - cpu always runs, less the remote-memory share when a blade
//     serves that share;
//   - the blade round trip runs only on a board with a blade;
//   - the disk is a direct Submit on a local disk, which runs even at
//     zero demand, or a SAN round trip, skipped at zero demand;
//   - the NIC always runs.
//
// A flow belongs to exactly one issuer (a closed-loop client or a batch
// task slot), which owns it for the request's whole lifetime; finish
// fires when the NIC completes. On a rack the blade is
// enclosure-resident (same shard as its boards on every legal
// partitioning) and the SAN lives on shard 0; both hops use the same
// Post discipline, so the trajectory is a pure function of the model,
// not of the partitioning. A flat request pays for no hop.
type flow struct {
	b      *board
	finish des.Action

	d      Demands
	start  des.Time
	req    int64
	traced bool
	// stage boundary times, kept for span emission at completion.
	tCPU, tDisk des.Time

	cpuFn, diskFn des.Action
	// hop is the fabric-hop state of a rack board's flow, nil on the
	// flat server. Keeping it out of line keeps the flat client record,
	// which the adaptive search allocates by the thousand, at 128 bytes.
	hop *hop
}

// hop is a rack flow's fabric-hop state: the bound continuations of the
// blade and SAN round trips, and the time the blade round trip ended.
type hop struct {
	tBlade des.Time

	bladeArriveFn, bladeDoneFn, bladeBackFn des.Action
	sanArriveFn, sanDoneFn                  des.Action
}

func (f *flow) init(b *board, finish des.Action) {
	f.b = b
	f.finish = finish
	f.cpuFn = f.cpuDone
	f.diskFn = f.diskDone
	if b.sh == nil {
		return
	}
	f.hop = &hop{sanArriveFn: f.sanArrive, sanDoneFn: f.sanDone}
	if b.blade != nil {
		f.hop.bladeArriveFn = f.bladeArrive
		f.hop.bladeDoneFn = f.bladeDone
		f.hop.bladeBackFn = f.bladeBack
	}
}

// serve runs request req through the board's stages; finish fires when
// the NIC stage completes.
//
//perf:hotpath
func (f *flow) serve(d Demands, req int64, traced bool) {
	f.d, f.req, f.traced = d, req, traced
	f.start = f.b.sim.Now()
	f.b.cpu.Submit(des.Time(f.cpuSec()), f.cpuFn)
}

// cpuSec is the request's cpu service: all of CPUSec, less the
// remote-memory share when a blade serves it.
//
//perf:hotpath
func (f *flow) cpuSec() float64 {
	if f.b.blade != nil {
		return f.d.CPUSec * (1 - f.b.memFrac)
	}
	return f.d.CPUSec
}

//perf:hotpath
func (f *flow) cpuDone() {
	b := f.b
	f.tCPU = b.sim.Now()
	if b.blade != nil {
		b.sh.Post(b.ent, b.bladeEnt, b.r.laIntra, f.hop.bladeArriveFn)
		return
	}
	f.toDisk()
}

// bladeArrive..bladeBack run the swap round trip: the remote-memory
// share of cpu service occupies the blade's channel, bracketed by two
// backplane hops.
//
//perf:hotpath
func (f *flow) bladeArrive() {
	f.b.blade.Submit(des.Time(f.d.CPUSec*f.b.memFrac), f.hop.bladeDoneFn)
}

//perf:hotpath
func (f *flow) bladeDone() {
	b := f.b
	b.sh.Post(b.bladeEnt, b.ent, b.r.laIntra, f.hop.bladeBackFn)
}

//perf:hotpath
func (f *flow) bladeBack() {
	f.hop.tBlade = f.b.sim.Now()
	f.toDisk()
}

// toDisk starts the disk stage: a local Submit, a SAN round trip, or —
// for a SAN request with no disk demand — straight on to the NIC.
//
//perf:hotpath
func (f *flow) toDisk() {
	b := f.b
	switch {
	case f.hop == nil:
		b.disk.Submit(des.Time(f.d.DiskSec), f.diskFn)
	case f.d.DiskSec > 0:
		b.sh.Post(b.ent, b.r.sanEnt, b.r.laSAN, f.hop.sanArriveFn)
	default:
		f.diskDone()
	}
}

// sanArrive and sanDone run on shard 0: the SAN's service, then the
// storage path back to the board.
//
//perf:hotpath
func (f *flow) sanArrive() {
	f.b.disk.Submit(des.Time(f.d.DiskSec), f.hop.sanDoneFn)
}

//perf:hotpath
func (f *flow) sanDone() {
	r := f.b.r
	r.sh0.Post(r.sanEnt, f.b.ent, r.laSAN, f.diskFn)
}

// diskDone ends the disk stage — the local disk's completion, or the
// SAN's return hop — and runs the NIC.
//
//perf:hotpath
func (f *flow) diskDone() {
	f.tDisk = f.b.sim.Now()
	f.b.net.Submit(des.Time(f.d.NetSec), f.finish)
}

// emitSpans records the completed request's span tree: a root request
// span plus a queue and a service span per station. It runs at
// completion, from the stage boundary times, because only then is the
// whole timeline — which on a rack crosses shards — known to the
// board's heap. The remote-memory share of cpu service is a swap span:
// nested under cpu service when the board folds it into CPUSec (the
// §3.4 slowdown; the span makes it attributable again), or a direct
// child of the root covering the blade round trip. A SAN round trip is
// one storage span.
func (f *flow) emitSpans(tr *span.Tracer) {
	b := f.b
	end := b.sim.Now()
	root := tr.Emit(0, f.req, span.KindRequest, "request", float64(f.start), float64(end))
	diskStart := f.tCPU
	if b.blade == nil {
		emitStage(tr, root, f.req, b.cpu.Name(), f.start, f.tCPU, f.d.CPUSec, b.memFrac)
	} else {
		diskStart = f.hop.tBlade
		emitStage(tr, root, f.req, b.cpu.Name(), f.start, f.tCPU, f.cpuSec(), 0)
		tr.Emit(root, f.req, span.KindSwap, b.blade.Name(), float64(f.tCPU), float64(diskStart))
	}
	switch {
	case f.hop == nil:
		emitStage(tr, root, f.req, b.disk.Name(), diskStart, f.tDisk, f.d.DiskSec, 0)
	case f.d.DiskSec > 0:
		tr.Emit(root, f.req, span.KindStorage, b.disk.Name(), float64(diskStart), float64(f.tDisk))
	}
	emitStage(tr, root, f.req, b.net.Name(), f.tDisk, end, f.d.NetSec, 0)
}

// client is one closed-loop client pinned to a board: think, issue,
// await the pipeline, repeat. The flat trial engine reuses its records
// across the trials of a search, reseeding the embedded RNG per trial.
type client struct {
	rng  stats.RNG
	flow flow

	startFn des.Action // the staggered first wake-up (== start)
	issueFn des.Action
}

func newClient(b *board) *client {
	c := &client{}
	c.flow.init(b, c.finished)
	c.startFn = c.start
	c.issueFn = c.issue
	return c
}

//perf:hotpath
func (c *client) start() { c.flow.b.pop.wait(&c.rng, c.issueFn) }

//perf:hotpath
func (c *client) issue() { c.flow.serve(c.flow.b.pop.next(&c.rng)) }

//perf:hotpath
func (c *client) finished() {
	pop := c.flow.b.pop
	pop.done(c.flow.start)
	if c.flow.traced {
		c.flow.emitSpans(pop.tracer)
	}
	pop.wait(&c.rng, c.issueFn)
}

// slot is one batch task slot: it relaunches itself until its board
// runs out of tasks, sampling each task from the board's stream. After
// each task, after takes the model's one batch-specific step: the flat
// job stops at its last task; the rack ships the task's shuffle chunk.
type slot struct {
	flow  flow
	after func(b *board, d Demands)
}

func newSlot(b *board, after func(*board, Demands)) *slot {
	s := &slot{after: after}
	s.flow.init(b, s.finished)
	return s
}

//perf:hotpath
func (s *slot) launch() {
	b := s.flow.b
	if b.remaining == 0 {
		return
	}
	b.remaining--
	s.flow.serve(b.pop.next(&b.rng))
}

//perf:hotpath
func (s *slot) finished() {
	b := s.flow.b
	b.pop.done(s.flow.start)
	if s.flow.traced {
		s.flow.emitSpans(b.pop.tracer)
	}
	s.after(b, s.flow.d)
	s.launch()
}
