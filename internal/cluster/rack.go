package cluster

// The sharded rack model: SimOptions.Topology switches Simulate from
// the flat single-server model to a rack of identical servers grouped
// into enclosures, executed on the conservative parallel kernel of
// internal/des/shard. Enclosures are the partitioning unit — every
// entity of an enclosure (its boards' cpu/net stations, its memory
// blade) lives on one shard, so board-local and blade traffic can
// touch shared state directly while still riding the mailbox Post
// discipline. Everything that crosses enclosure boundaries — SAN disk
// I/O, mapreduce shuffle chunks, job-completion reports — is genuinely
// cross-shard and flows through the bounded channel mailboxes with a
// delay of exactly its traffic class's transport latency: laIntra for
// backplane hops (fabric.IntraEnclosureLatencySec), laSAN for the
// storage path (fabric.SANPathLatencySec), laCross for board-to-board
// fabric traffic (fabric.CrossEnclosureLatencySec). The same three
// values, arranged per shard pair by lookaheadMatrix, are the engine's
// lookahead floors — the physics and the protocol agree by
// construction, and pairs with no modeled traffic are +Inf so they
// never throttle a synchronization window.
//
// Partition-independence discipline (the shards-1-vs-N byte gate):
//
//   - All randomness is derived per client/board from (Seed, global
//     entity id, index) — never from a shared stream whose draw order
//     could depend on the partitioning.
//   - Recording is per part at EVERY shard count: one recording part
//     (telemetry.go) per enclosure, then the rack-global part, each
//     with a private obs.Sink and, when a plane is on, its own window
//     collector and energy view. fold merges them in that part order
//     after the run, so float accumulation order and event
//     interleaving never depend on how enclosures were packed onto
//     shards.
//   - Probes omit the kernel-wide gauges (heap depth, event rate are
//     per-shard quantities) and resource series carry enclosure/board
//     names, so every series is written by exactly one part.
//   - The live hook rides the rack-global part's probes on shard 0 and
//     hands over every part's sink and collectors, so a rack on one
//     heap can be watched mid-run before its parts fold.
//   - Engine diagnostics (round counts, the busy/blocked wall-clock
//     split) are scheduling-dependent and go to SimOptions.ShardDiag,
//     never into Obs.
//
// Interactive workloads run a fixed closed-loop population
// (ClientsPerBoard per board) instead of the flat model's adaptive
// client search: the rack measures a provisioned cluster at its
// configured operating point. Batch workloads run one mapreduce-style
// job: tasks are split statically across boards, each task walks
// cpu -> memory blade -> SAN -> NIC and then ships a shuffle chunk to
// a deterministically chosen peer board, which receives it on its own
// NIC and reports to a rack-wide aggregator; the job is done when the
// aggregator has seen every chunk. Batch jobs end by running the
// cluster dry — an exit every shard takes in the same round — and
// a recorded batch run replays with the job's completion time as the
// horizon so probe timelines are complete.

import (
	"fmt"
	"math"

	"warehousesim/internal/des"
	"warehousesim/internal/des/shard"
	"warehousesim/internal/fabric"
	"warehousesim/internal/obs"
	"warehousesim/internal/stats"
	"warehousesim/internal/workload"
)

// maxRackBoards bounds a rack's total board count. buildRack
// materializes every board with its resources and clients, so a larger
// rack would exhaust memory before it ran; the densest rack the paper
// builds (the aggregated-microblade package) holds 1250 systems, an
// order of magnitude below the cap.
const maxRackBoards = 1 << 14

// ShardedTopology sizes the rack model: Enclosures enclosures of
// BoardsPerEnclosure boards (each one configured Server), one memory
// blade per enclosure, and one consolidated SAN array (one disk per
// enclosure) shared by the whole rack, partitioned across Shards event
// heaps.
type ShardedTopology struct {
	// Enclosures is the number of enclosures (>= 1); the enclosure is
	// the partitioning unit.
	Enclosures int
	// BoardsPerEnclosure is the number of server boards per enclosure
	// (>= 1), ignored when Boards is set.
	BoardsPerEnclosure int
	// Boards, when non-empty, gives a heterogeneous rack: Boards[e]
	// server boards in enclosure e (each >= 1). Its length must equal
	// Enclosures.
	Boards []int
	// ClientsPerBoard is the closed-loop client population per board
	// for interactive workloads; 0 means 4. The rack model measures
	// this fixed provisioning directly — there is no adaptive search.
	ClientsPerBoard int
	// Shards is the number of event heaps, each on its own goroutine;
	// values outside [1, Enclosures] are clamped, so 0 runs the rack on
	// one heap. Enclosures are split contiguously across them
	// (shard.PlaceBlock). Results are byte-identical at every value.
	// No CLI sets it: more than one heap only slows a rack down
	// (DESIGN.md §8); whperf's rack workload still times two.
	Shards int
}

// Normalize implements Topology: it validates the topology and fills
// defaulted fields in place. SimOptions.Normalize calls it on a clone,
// so callers' values are never written through.
func (t *ShardedTopology) Normalize() error {
	if t.Enclosures < 1 {
		return fmt.Errorf("cluster: topology needs at least one enclosure, got %d", t.Enclosures)
	}
	if len(t.Boards) > 0 {
		if len(t.Boards) != t.Enclosures {
			return fmt.Errorf("cluster: topology has %d per-enclosure board counts for %d enclosures", len(t.Boards), t.Enclosures)
		}
		for e, n := range t.Boards {
			if n < 1 {
				return fmt.Errorf("cluster: enclosure %d needs at least one board, got %d", e, n)
			}
		}
	} else if t.BoardsPerEnclosure < 1 {
		return fmt.Errorf("cluster: topology needs at least one board per enclosure, got %d", t.BoardsPerEnclosure)
	}
	// Count boards without overflow: stop at the first enclosure that
	// would carry the total past the cap.
	total := 0
	for e := 0; e < t.Enclosures; e++ {
		b := t.boardsIn(e)
		if b > maxRackBoards-total {
			return fmt.Errorf("cluster: rack of %d enclosures holds more than %d boards: enclosure %d has %d, after %d in the enclosures before it",
				t.Enclosures, maxRackBoards, e, b, total)
		}
		total += b
	}
	if t.ClientsPerBoard < 0 {
		return fmt.Errorf("cluster: negative clients per board %d", t.ClientsPerBoard)
	}
	if t.ClientsPerBoard == 0 {
		t.ClientsPerBoard = 4
	}
	t.Shards = min(max(t.Shards, 1), t.Enclosures)
	return nil
}

// clone implements Topology with a deep copy (Boards is the only
// reference field).
func (t *ShardedTopology) clone() Topology {
	c := *t
	c.Boards = append([]int(nil), t.Boards...)
	return &c
}

// simulate implements Topology: it dispatches the rack model. The
// generator must be stateless (clients on different shards sample it
// concurrently).
func (t *ShardedTopology) simulate(c Config, gen workload.Generator, p workload.Profile, opt SimOptions) (Result, error) {
	if !workload.IsStateless(gen) {
		return Result{}, fmt.Errorf("cluster: the sharded rack model samples the generator concurrently across shards and needs workload.IsStateless; %T is stateful", gen)
	}
	if opt.OnProbeTick != nil && t.Shards > 1 {
		return Result{}, fmt.Errorf("cluster: OnProbeTick rides shard 0 and would read the other %d shards' collectors off their goroutines; run the rack on one heap to watch it live", t.Shards-1)
	}
	if p.Batch {
		return c.rackBatch(t, gen, p, opt)
	}
	return c.rackInteractive(t, gen, p, opt)
}

// boardsIn returns enclosure e's board count, honoring the
// heterogeneous override.
func (t ShardedTopology) boardsIn(e int) int {
	if len(t.Boards) > 0 {
		return t.Boards[e]
	}
	return t.BoardsPerEnclosure
}

// totalBoards is the rack's board count across all enclosures.
func (t ShardedTopology) totalBoards() int {
	if len(t.Boards) == 0 {
		return t.Enclosures * t.BoardsPerEnclosure
	}
	n := 0
	for _, b := range t.Boards {
		n += b
	}
	return n
}

// rackSim owns one rack run: the engine, the per-enclosure model state,
// and the rack-global entities (SAN, aggregator) on shard 0. The three
// latency classes are the rack's transport physics and, pair-wise, the
// engine's lookahead floors — one derivation for both (see
// lookaheadMatrix): laIntra for backplane hops that never leave an
// enclosure (blade swaps), laSAN for the storage path, laCross for
// board-to-board fabric traffic (shuffle chunks, aggregator reports).
type rackSim struct {
	cfg     Config
	topo    ShardedTopology
	p       workload.Profile
	opt     SimOptions
	eng     *shard.Engine
	laIntra des.Time
	laSAN   des.Time
	laCross des.Time
	memFrac float64
	dm      demandModel

	encs   []*rackEnclosure
	boards []*board // global board order: enclosure-major
	// parts are the recording parts of a recorded run, nil otherwise:
	// one per enclosure, then the rack-global part (SAN probes, run
	// counters).
	parts []part

	sh0    *shard.Shard
	san    *des.Resource
	sanEnt shard.EntityID
	aggEnt shard.EntityID

	aggDone   int
	aggTotal  int
	aggFinish des.Time
	aggDoneFn des.Action
}

// rackEnclosure is one enclosure: a shard-resident group of boards plus
// the enclosure's memory blade. All of its state, its recording part
// included, is touched only by events on its shard.
type rackEnclosure struct {
	sh       *shard.Shard
	bladeEnt shard.EntityID
	blade    *des.Resource // nil when the config has no remote memory
	boards   []*board
	pop      population
}

// shuffle is the rack's step after each batch task: it ships the
// task's output chunk from board b to a deterministically chosen peer
// board. The slot frees immediately (map-side), so the chunk carries
// its own continuation state.
func (r *rackSim) shuffle(b *board, d Demands) {
	peer := r.shufflePeer(b)
	ch := &rackChunk{r: r, dst: peer, netSec: d.NetSec}
	ch.recvFn = ch.recv
	ch.sentFn = ch.sent
	b.sh.Post(b.ent, peer.ent, r.laCross, ch.recvFn)
}

// shufflePeer picks the destination board for a shuffle chunk from
// b's own stream — deterministic per board, never b itself unless the
// rack has a single board.
func (r *rackSim) shufflePeer(b *board) *board {
	n := len(r.boards)
	if n == 1 {
		return b
	}
	k := int(b.rng.Uint64() % uint64(n-1))
	return r.boards[(b.global+1+k)%n]
}

// rackChunk is one shuffle chunk in flight: received on the peer
// board's NIC, then reported to the rack-wide aggregator.
type rackChunk struct {
	r      *rackSim
	dst    *board
	netSec float64

	recvFn, sentFn des.Action
}

func (c *rackChunk) recv() {
	c.dst.net.Submit(des.Time(c.netSec), c.sentFn)
}

func (c *rackChunk) sent() {
	c.dst.sh.Post(c.dst.ent, c.r.aggEnt, c.r.laCross, c.r.aggDoneFn)
}

// aggChunkDone runs on shard 0 for every delivered chunk; the last one
// stamps the job's completion time.
func (r *rackSim) aggChunkDone() {
	r.aggDone++
	if r.aggDone == r.aggTotal {
		r.aggFinish = r.sh0.Now()
	}
}

// lookaheadMatrix derives the per-shard-pair lookahead floors from the
// rack's traffic classes. The floor of a pair is the cheapest transport
// delay of any message the model can post between entities on those
// shards — so the matrix is a statement about which traffic exists, not
// about where enclosures landed, and the same matrix is valid at every
// shard count:
//
//   - Diagonal: laIntra. Blade swaps are the cheapest same-shard posts
//     (enclosures are never split, so blade traffic is always
//     same-shard).
//   - Batch runs shuffle chunks between arbitrary board pairs and ship
//     aggregator reports to shard 0, so every off-diagonal pair floors
//     at laCross (the SAN path also exists but is strictly slower).
//   - Interactive runs have exactly one cross-enclosure flow: the SAN
//     round trip, pinned to shard 0. Pairs touching shard 0 floor at
//     laSAN — wider than the raw fabric bound, which is the point —
//     and every other pair carries no traffic at all (+Inf), so two
//     board-only shards never throttle each other directly; the engine
//     closes the matrix, bounding their indirect coupling through the
//     SAN at 2·laSAN.
func lookaheadMatrix(shards int, batch bool, laIntra, laSAN, laCross des.Time) [][]des.Time {
	inf := des.Time(math.Inf(1))
	m := make([][]des.Time, shards)
	for s := range m {
		m[s] = make([]des.Time, shards)
		for d := range m[s] {
			switch {
			case s == d:
				m[s][d] = laIntra
			case batch:
				m[s][d] = laCross
			case s == 0 || d == 0:
				m[s][d] = laSAN
			default:
				m[s][d] = inf
			}
		}
	}
	return m
}

// buildRack wires the engine, the entity namespace, and the
// per-enclosure model state. Entity ids are dense and global:
// boards 0..N-1 (enclosure-major, heterogeneous racks via prefix
// sums), blades N..N+E-1, then the SAN and the aggregator. Enclosures
// are split contiguously across the shards (shard.PlaceBlock); the SAN
// and aggregator live on shard 0.
func buildRack(c Config, topo *ShardedTopology, gen workload.Generator, p workload.Profile, opt SimOptions, recording bool) (*rackSim, error) {
	t := *topo
	nBoards := t.totalBoards()
	nic := c.Server.NIC.BytesPerSec()
	laIntra := des.Time(fabric.IntraEnclosureLatencySec(nic))
	laSAN := des.Time(fabric.SANPathLatencySec(nic))
	laCross := des.Time(fabric.CrossEnclosureLatencySec(nic))
	eng, err := shard.NewEngine(shard.Config{
		Shards:          t.Shards,
		Entities:        nBoards + t.Enclosures + 2,
		LookaheadMatrix: lookaheadMatrix(t.Shards, p.Batch, laIntra, laSAN, laCross),
		Timed:           opt.ShardDiag != nil,
	})
	if err != nil {
		return nil, err
	}
	r := &rackSim{
		cfg:     c,
		topo:    t,
		p:       p,
		opt:     opt,
		eng:     eng,
		laIntra: laIntra,
		laSAN:   laSAN,
		laCross: laCross,
		memFrac: c.memSwapFraction(),
		dm:      c.demandModelFor(p),
		sanEnt:  shard.EntityID(nBoards + t.Enclosures),
		aggEnt:  shard.EntityID(nBoards + t.Enclosures + 1),
	}
	if recording {
		r.parts = make([]part, 0, t.Enclosures+1)
	}
	r.aggDoneFn = r.aggChunkDone
	r.sh0 = eng.Shard(0)
	eng.Assign(r.sanEnt, 0)
	eng.Assign(r.aggEnt, 0)
	r.san = des.NewResource(r.sh0.Sim, "san", t.Enclosures)
	placement := shard.PlaceBlock(t.Enclosures, t.Shards)
	boardBase := 0
	for e := 0; e < t.Enclosures; e++ {
		sid := placement[e]
		enc := &rackEnclosure{
			sh:       eng.Shard(sid),
			bladeEnt: shard.EntityID(nBoards + e),
		}
		eng.Assign(enc.bladeEnt, sid)
		// The enclosure's part is fed by its population and probes:
		// windows are assigned by observation time, so the part is the
		// same at every shard count.
		var pt part
		if recording {
			if pt, err = newPart(obs.NewSink(), p, opt); err != nil {
				return nil, err
			}
			r.parts = append(r.parts, pt)
		}
		pop := &enc.pop
		pop.sim = enc.sh.Sim
		pop.dm = &r.dm
		// Disjoint bases keep span ids and request numbers unique across
		// the per-enclosure populations, at every shard count.
		pop.bind(gen, pt, opt.TraceEvery, (int64(e)+1)<<40)
		if p.Batch {
			pop.measuring = true // the whole job is the measurement
		} else {
			pop.think = stats.Exponential{Mean: p.ThinkTimeSec}
			pop.hist = stats.NewLatencyHistogram()
			pop.qosBound = p.QoSLatencySec
		}
		if r.memFrac > 0 {
			enc.blade = des.NewResource(enc.sh.Sim, fmt.Sprintf("memblade.e%d", e), 1)
		}
		for b := 0; b < t.boardsIn(e); b++ {
			g := boardBase + b
			bd := &board{
				sim:      enc.sh.Sim,
				pop:      pop,
				cpu:      des.NewResource(enc.sh.Sim, fmt.Sprintf("cpu.e%d.b%d", e, b), c.Server.CPU.Cores()),
				net:      des.NewResource(enc.sh.Sim, fmt.Sprintf("net.e%d.b%d", e, b), 1),
				disk:     r.san,
				blade:    enc.blade,
				bladeEnt: enc.bladeEnt,
				memFrac:  r.memFrac,
				sh:       enc.sh,
				ent:      shard.EntityID(g),
				global:   g,
				r:        r,
			}
			eng.Assign(bd.ent, sid)
			enc.boards = append(enc.boards, bd)
			r.boards = append(r.boards, bd)
		}
		boardBase += t.boardsIn(e)
		r.encs = append(r.encs, enc)
	}
	if recording {
		global, err := newPart(obs.NewSink(), p, opt)
		if err != nil {
			return nil, err
		}
		r.parts = append(r.parts, global)
	}
	return r, nil
}

// startProbes starts every part's timeline probes: each enclosure's
// over its boards' stations and its blade, the rack-global part's over
// the SAN. Every resource series name is enclosure/board-scoped, so
// each series belongs to exactly one part. The live-introspection hook
// rides the rack-global probes, on shard 0, which owns every part when
// the rack runs on one heap.
func (r *rackSim) startProbes() {
	iv := r.opt.ProbeIntervalSec
	for e, enc := range r.encs {
		res := make([]*des.Resource, 0, 2*len(enc.boards)+1)
		for _, bd := range enc.boards {
			res = append(res, bd.cpu, bd.net)
		}
		if enc.blade != nil {
			res = append(res, enc.blade)
		}
		r.parts[e].probe(enc.sh.Sim, iv, false, nil, res...)
	}
	r.parts[len(r.encs)].probe(r.sh0.Sim, iv, false, onTick(r.opt.OnProbeTick, r.parts...), r.san)
}

// setupInteractive populates every board with its closed-loop clients
// and schedules the per-enclosure warm-up boundaries.
func (r *rackSim) setupInteractive() {
	for _, enc := range r.encs {
		enc := enc
		for _, bd := range enc.boards {
			for ci := 0; ci < r.topo.ClientsPerBoard; ci++ {
				cl := newClient(bd)
				cl.rng.Seed(stats.EntitySeed(r.opt.Seed, bd.global, ci))
				// Stagger initial arrivals across one think time, from
				// the client's own stream.
				enc.sh.Sim.Schedule(des.Time(cl.rng.Float64()*(r.p.ThinkTimeSec+0.01)), cl.startFn)
			}
		}
		enc.sh.Sim.Schedule(des.Time(r.opt.WarmupSec), func() {
			enc.pop.measuring = true
			for _, bd := range enc.boards {
				bd.cpu.ResetWindow()
				bd.net.ResetWindow()
			}
			if enc.blade != nil {
				enc.blade.ResetWindow()
			}
		})
	}
	r.sh0.Sim.Schedule(des.Time(r.opt.WarmupSec), func() { r.san.ResetWindow() })
	if r.parts != nil {
		r.startProbes()
	}
}

// setupBatch splits the job's tasks statically across boards and
// launches each board's task slots.
func (r *rackSim) setupBatch() int {
	slots := r.cfg.batchSlots()
	n := len(r.boards)
	r.aggTotal = r.p.JobRequests
	shuffle := r.shuffle
	for _, bd := range r.boards {
		bd.rng.Seed(stats.EntitySeed(r.opt.Seed, bd.global, 0))
		bd.remaining = r.p.JobRequests / n
		if bd.global < r.p.JobRequests%n {
			bd.remaining++
		}
		for range min(slots, bd.remaining) {
			newSlot(bd, shuffle).launch()
		}
	}
	if r.parts != nil {
		r.startProbes()
	}
	return slots
}

// utilization aggregates busy integrals over a measurement window of
// windowSec, in fixed enclosure/board order — integrals don't depend on
// each shard's final clock, so the map is partition-independent even
// when a batch run ends with shard clocks apart.
func (r *rackSim) utilization(windowSec float64) map[string]float64 {
	var cpu, net float64
	for _, bd := range r.boards {
		cb, _ := bd.cpu.Integrals()
		nb, _ := bd.net.Integrals()
		cpu += cb / (windowSec * float64(bd.cpu.Servers()))
		net += nb / windowSec
	}
	n := float64(len(r.boards))
	sb, _ := r.san.Integrals()
	util := map[string]float64{
		"cpu":  cpu / n,
		"net":  net / n,
		"disk": sb / (windowSec * float64(r.san.Servers())),
	}
	if r.memFrac > 0 {
		var blade float64
		for _, enc := range r.encs {
			bb, _ := enc.blade.Integrals()
			blade += bb / windowSec
		}
		util["memblade"] = blade / float64(len(r.encs))
	}
	return util
}

// finish counts the run's events and clients into the rack-global part
// and folds every part into the caller's sink and res, enclosures then
// the global part — the same fold at every shard count, so the exports
// are byte-identical at any Shards value. The engine's diagnostics go
// to ShardDiag, apart from the deterministic stream.
func (r *rackSim) finish(clients int, horizon float64, res *Result) error {
	if r.parts != nil {
		global := r.parts[len(r.encs)].rec
		global.Count("des.events", int64(r.eng.Fired()))
		global.Count("trial.clients", int64(clients))
	}
	if r.opt.ShardDiag != nil {
		r.eng.EmitDiagnostics(r.opt.ShardDiag)
	}
	return fold(r.opt.Obs, res, horizon, true, r.parts...)
}

func (c Config) rackInteractive(t *ShardedTopology, gen workload.Generator, p workload.Profile, opt SimOptions) (Result, error) {
	r, err := buildRack(c, t, gen, p, opt, opt.Obs != nil)
	if err != nil {
		return Result{}, err
	}
	r.setupInteractive()
	r.eng.Run(des.Time(opt.WarmupSec + opt.MeasureSec))

	hist := stats.NewLatencyHistogram()
	completed := 0
	for _, enc := range r.encs {
		hist.Merge(enc.pop.hist)
		completed += enc.pop.completed
	}
	clients := len(r.boards) * r.topo.ClientsPerBoard
	out := outcome(p, hist, completed, opt.MeasureSec, r.utilization(opt.MeasureSec), clients)
	if err := r.finish(clients, opt.WarmupSec+opt.MeasureSec, &out); err != nil {
		return Result{}, err
	}
	return out, nil
}

// rackBatch runs the job twice when recording: an uninstrumented pass
// that runs the cluster dry to find the completion time (probes would
// keep rescheduling forever against an open horizon), then an
// instrumented replay to exactly that horizon — same seeds, identical
// trajectory — so timelines cover the whole job.
func (c Config) rackBatch(t *ShardedTopology, gen workload.Generator, p workload.Profile, opt SimOptions) (Result, error) {
	r, err := buildRack(c, t, gen, p, opt, false)
	if err != nil {
		return Result{}, err
	}
	slots := r.setupBatch()
	r.eng.Run(des.Time(math.Inf(1)))
	if r.aggDone != p.JobRequests {
		return Result{}, fmt.Errorf("cluster: rack batch job stalled at %d/%d chunks", r.aggDone, p.JobRequests)
	}
	exec := float64(r.aggFinish)

	measured := r
	if opt.Obs != nil {
		r2, err := buildRack(c, t, gen, p, opt, true)
		if err != nil {
			return Result{}, err
		}
		r2.setupBatch()
		r2.eng.Run(r.aggFinish)
		if r2.aggDone != r.aggDone || r2.aggFinish != r.aggFinish {
			return Result{}, fmt.Errorf("cluster: instrumented rack replay diverged: %d/%d chunks at %v vs %v",
				r2.aggDone, r.aggDone, r2.aggFinish, r.aggFinish)
		}
		measured = r2
	}
	clients := slots * len(r.boards)
	out := outcome(p, nil, p.JobRequests, exec, measured.utilization(exec), clients)
	if err := measured.finish(clients, exec, &out); err != nil {
		return Result{}, err
	}
	return out, nil
}
