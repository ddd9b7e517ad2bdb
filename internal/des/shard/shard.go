// Package shard partitions one simulated cluster across several
// event heaps — one des.Sim per shard, each with its own clock — and
// synchronizes them conservatively so that N shards on N goroutines
// produce byte-identical results to one shard on one goroutine.
//
// Synchronization is a conservative bounded-lag window protocol
// (YAWNS-style) driven by null messages. Every cross-entity
// interaction goes through Post, which requires a delay of at least
// the lookahead floor of the (source shard, destination shard) pair:
// Config.LookaheadMatrix, derived by the model from its topology (an
// intra-enclosure backplane hop is cheaper than a cross-enclosure
// fabric hop, which is cheaper than a SAN path). The engine closes the
// raw matrix under min-plus (Floyd-Warshall), so a relay through an
// intermediate shard never promises more than the sum of its hops.
//
// Shards run in lockstep rounds. Each round, every shard sends every
// peer one batch through a bounded channel mailbox: the cross-shard
// messages it staged during the window it just executed — sorted by
// the canonical key — plus its constraint row and its scalar earliest
// output time (EOT). An empty batch is a pure null message. The row
// carries one lower bound per destination shard d on when anything
// from this shard s can still reach d:
//
//	row_s[d] = min( localMin_s + L*[s][d],
//	                min over k != d of stagedMin_s[k] + L*[k][d],
//	                stagedMin_s[d] + rt[d] )
//
// where localMin_s is s's earliest local event or undelivered arrival,
// stagedMin_s[k] is the earliest arrival s just staged for shard k,
// L* is the closed matrix and rt[d] is the cheapest closed round trip
// out of d. The staged terms matter: a message already in flight to k
// can make k send to d sooner than anything still on s's heap. The
// last term bounds the consequences of messages staged directly for d:
// the messages themselves ride in the same batch as the row (so d
// merges them before advancing), but d may execute one inside the very
// window this row authorizes and trigger a reply chain that boomerangs
// back to d — any such path leaves d and returns, so it costs at least
// rt[d]. The diagonal slot row_s[s] carries the same bound for s
// itself: localMin_s + rt[s] for what s's own in-window events can
// cause to come back, plus the staged terms.
// Every shard then holds the full row matrix and reduces, identically,
//
//	E_d = min over all s of row_s[d]
//
// so the window [committed_d, E_d) is safe for d to execute without
// further communication — and because every shard computes every E_d
// from the same rows, the run-dry and final-window exits happen on the
// same round everywhere: nobody is left blocking on a mailbox,
// which is the protocol's deadlock-freedom argument. Windows jump
// directly to the next real event plus closed lookahead — the classic
// null-message creep of asynchronous Chandy-Misra cannot happen,
// because rows carry absolute event times, not incrementally-raised
// frontiers. Pairs with no modeled traffic have an infinite entry, so
// a shard whose only coupling is the SAN path is never throttled by
// the tighter fabric floor of pairs it does not talk to.
//
// Determinism does not come from the partitioning — it comes from the
// exchange discipline, which is identical at every shard count:
//
//   - Each posted message carries the key (arrive, src, per-src seq).
//     Messages with equal arrival times are delivered in key order, so
//     ordering never depends on which shard the sender lived on.
//   - Batches are sorted by the sender and k-way merged by the
//     receiver into one sorted pending run; same-shard posts sit in a
//     separate local heap and delivery always pops the key-smaller of
//     the two — exactly the single-heap order.
//   - A message moves into the destination heap exactly when the
//     destination's next local event time has reached its arrival time
//     (the advance loop interleaves delivery and execution at event
//     granularity), so heap seq assignment — the kernel's FIFO
//     tie-break — is a pure function of simulated time, not of the
//     partitioning or of goroutine interleaving.
//   - Entities may share state directly (a memory blade, a board's
//     resources) only when they are co-resident on every legal
//     partitioning; all other traffic — blade swaps, SAN disk I/O,
//     shuffle chunks — must use Post.
//
// Buffers are recycled by the lockstep itself, so steady-state rounds
// allocate nothing and each link carries one send and one receive per
// round. Every outbound link keeps two message slabs: a non-empty
// staging slab is sent and swapped with the spare, and Post fills the
// other. Every shard keeps two constraint-row buffers and writes round
// r's row into buffer r mod 2. Both are sound because a shard sends
// its round r+1 batch only after it has merged (and cleared) the slabs
// and read the rows it received in round r, and the sender touches
// those buffers again only after receiving that round r+1 batch: it
// stages into a slab only while executing a window, and it rewrites a
// row buffer two rounds later.
//
// Why conservative and not optimistic: the kernel drops each event as
// it fires and models mutate shared resources in place, so rollback
// would need full state checkpointing; with lookahead floors in the tens of
// microseconds against sub-microsecond event spacing, conservative
// windows already batch thousands of events per synchronization round.
package shard

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"warehousesim/internal/des"
)

// EntityID names one simulated entity (a board, a memory blade, the
// SAN array, a job aggregator). IDs are global — assigned by the model
// from a single dense namespace — so per-entity send sequence numbers
// are independent of the partitioning.
type EntityID int32

// Config sizes an Engine.
type Config struct {
	// Shards is the number of partitions (>= 1). One shard runs inline
	// on the caller's goroutine and is exactly the single-heap kernel.
	Shards int
	// Entities is the size of the entity namespace; Post panics on IDs
	// outside [0, Entities).
	Entities int
	// LookaheadMatrix gives the per-(src shard, dst shard) minimum
	// delay floor: Post from a src-shard entity to a dst-shard entity
	// rejects delays below LookaheadMatrix[src][dst]. It must be
	// Shards x Shards; diagonal entries floor same-shard posts and may
	// be zero; off-diagonal entries must be > 0 or +Inf (+Inf marks a
	// pair with no modeled traffic — Post there always panics, and the
	// pair never throttles a window). Windows are derived from the
	// min-plus closure of this matrix, so entries need not satisfy the
	// triangle inequality.
	LookaheadMatrix [][]des.Time
	// Timed turns on the round loop's wall-clock split (Stats.BusySec
	// and BlockedSec). The clock is read a few times per round, so an
	// engine nobody diagnoses leaves it off.
	Timed bool
}

// mailboxCap bounds each cross-shard channel in batches. The lockstep
// protocol puts at most one batch in flight per channel per round, so
// the bound is only slack.
const mailboxCap = 4

var infTime = des.Time(math.Inf(1))

// message is one cross-entity event in flight. The (arrive, src, seq)
// triple is the canonical delivery order.
type message struct {
	arrive des.Time
	src    EntityID
	seq    uint64
	act    des.Action
}

func msgLess(a, b message) bool {
	if a.arrive != b.arrive {
		return a.arrive < b.arrive
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// msgCmp is msgLess for slices.SortFunc. Keys are unique (seq is
// per-source monotonic), so the sort order is total and deterministic.
func msgCmp(a, b message) int {
	switch {
	case msgLess(a, b):
		return -1
	case msgLess(b, a):
		return 1
	}
	return 0
}

// msgHeap is a hand-rolled binary heap of messages ordered by
// (arrive, src, seq). container/heap would box every message through
// an interface on the pop path; this keeps same-shard delivery
// allocation-free.
type msgHeap []message

func (h *msgHeap) push(m message) {
	*h = append(*h, m)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !msgLess(q[i], q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

func (h *msgHeap) pop() message {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = message{} // drop the action so the backing array retains no closures
	*h = q[:n]
	q = q[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && msgLess(q[l], q[small]) {
			small = l
		}
		if r < n && msgLess(q[r], q[small]) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	return top
}

// batch is what travels through a mailbox once per round: zero or more
// messages sorted by (arrive, src, seq) — a nil slice is a pure null
// message — plus the sender's constraint row and its scalar earliest
// output time. The receiver may use the slab and the row only until it
// sends its next batch (see the package doc).
type batch struct {
	eot  des.Time
	row  []des.Time
	msgs []message
}

// peer is one outbound link: the staging slab filled by Post, the
// spare slab it swaps with on a non-empty send, and the channel it is
// flushed into at round boundaries.
type peer struct {
	shard     int
	ch        chan batch
	stage     []message
	spare     []message
	stagedMin des.Time // earliest arrival among staged messages
}

// inbox is one inbound link: the source shard id and the shared
// channel.
type inbox struct {
	src int
	ch  chan batch
}

// Stats summarizes one shard's run for diagnostics. Everything here
// except Fired depends on scheduling and must never feed the
// deterministic export path.
type Stats struct {
	Windows  int64  // synchronization rounds committed
	MsgsSent int64  // cross-shard messages staged
	Fired    uint64 // events executed by this shard's Sim

	// Wall-clock split of the round loop: BusySec executing the window
	// (advance), BlockedSec flushing to and waiting on peer mailboxes.
	// BusySec/(BusySec+BlockedSec) is the shard's parallel efficiency.
	// An engine built without Config.Timed reads no clock and reports
	// zero for both, as does a single-shard engine, which runs no
	// rounds.
	BusySec    float64
	BlockedSec float64
}

// Shard is one partition: a private des.Sim plus the exchange state.
// All methods must be called from the shard's own goroutine (model
// actions run there).
type Shard struct {
	eng *Engine
	id  int
	// Sim is the shard's private event heap and clock. Models schedule
	// entity-local continuations on it directly; cross-entity traffic
	// must go through Post.
	Sim *des.Sim

	committed des.Time
	doneFinal bool

	// Cross-shard arrivals: one sorted run (merged once per round from
	// the received batches), consumed from pendHead. Same-shard posts
	// go to the local heap; delivery pops the key-smaller of the two.
	pending    []message
	pendHead   int
	mergeBuf   []message   // ping-pong buffer for the round merge
	runs       [][]message // received slabs awaiting merge (round scratch)
	srcScratch [][]message // k-way merge cursor scratch
	local      msgHeap

	in     []inbox
	peers  []*peer
	peerBy []*peer // indexed by destination shard id, nil for self

	rows   [][]des.Time  // rows[s] = latest constraint row from shard s
	rowBuf [2][]des.Time // this shard's row buffers, by round parity
	eots   []des.Time    // latest scalar EOT per shard (dry detection)

	// Round-loop diagnostics (owner goroutine only).
	windows   int64
	msgsSent  int64
	busyNs    int64
	blockedNs int64
}

// Engine coordinates the shards of one run.
type Engine struct {
	shards []*Shard
	owner  []int32
	seqs   []uint64 // per-entity send sequence, written only by the owning shard
	raw    [][]des.Time
	closed [][]des.Time
	rt     []des.Time // rt[s] = min round-trip lookahead s -> any k -> s
	timed  bool
	ran    bool
}

// NewEngine builds an engine. It rejects a lookahead matrix of the
// wrong dimensions, NaN or negative entries, and zero off-diagonal
// entries: the conservative window is bounded by the pairwise
// lookahead, so at a zero floor no shard could ever prove any event
// safe and the engine would deadlock by construction.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: Shards must be >= 1, got %d", cfg.Shards)
	}
	if cfg.Entities < 1 {
		return nil, fmt.Errorf("shard: Entities must be >= 1, got %d", cfg.Entities)
	}
	n := cfg.Shards
	if len(cfg.LookaheadMatrix) != n {
		return nil, fmt.Errorf("shard: lookahead matrix has %d rows, want %d", len(cfg.LookaheadMatrix), n)
	}
	raw := make([][]des.Time, n)
	for i, r := range cfg.LookaheadMatrix {
		if len(r) != n {
			return nil, fmt.Errorf("shard: lookahead matrix row %d has %d entries, want %d", i, len(r), n)
		}
		raw[i] = append([]des.Time(nil), r...)
		for j, v := range r {
			f := float64(v)
			if math.IsNaN(f) || f < 0 {
				return nil, fmt.Errorf("shard: invalid lookahead %v for pair (%d,%d)", v, i, j)
			}
			if i != j && f == 0 {
				return nil, fmt.Errorf("shard: zero lookahead for cross-shard pair (%d,%d): a conservative engine cannot form a synchronization window at zero lookahead", i, j)
			}
		}
	}
	e := &Engine{
		owner:  make([]int32, cfg.Entities),
		seqs:   make([]uint64, cfg.Entities),
		raw:    raw,
		closed: closeMatrix(raw),
		timed:  cfg.Timed,
	}
	e.rt = make([]des.Time, n)
	for i := 0; i < n; i++ {
		e.rt[i] = infTime
		for k := 0; k < n; k++ {
			if k == i {
				continue
			}
			if v := e.closed[i][k] + e.closed[k][i]; v < e.rt[i] {
				e.rt[i] = v
			}
		}
	}
	e.shards = make([]*Shard, n)
	for i := range e.shards {
		s := &Shard{eng: e, id: i, Sim: des.NewSim()}
		s.rows = make([][]des.Time, n)
		s.rowBuf = [2][]des.Time{make([]des.Time, n), make([]des.Time, n)}
		s.eots = make([]des.Time, n)
		e.shards[i] = s
	}
	// Full mesh of bounded mailboxes: every ordered pair gets one
	// channel, so null messages flow even between shards that never
	// exchange model traffic.
	for _, src := range e.shards {
		src.peerBy = make([]*peer, n)
		for _, dst := range e.shards {
			if src == dst {
				continue
			}
			p := &peer{shard: dst.id, ch: make(chan batch, mailboxCap), stagedMin: infTime}
			src.peers = append(src.peers, p)
			src.peerBy[dst.id] = p
			dst.in = append(dst.in, inbox{src: src.id, ch: p.ch})
		}
	}
	return e, nil
}

// closeMatrix computes the min-plus closure of the raw pairwise
// lookahead floors: closed[i][j] is the cheapest way anything leaving
// shard i can reach shard j, relaying through intermediate shards
// (each relay hop pays that pair's raw floor; executing at a relay is
// free). Diagonal entries keep their raw floor — they floor same-shard
// posts and take no part in window math.
func closeMatrix(raw [][]des.Time) [][]des.Time {
	n := len(raw)
	d := make([][]des.Time, n)
	for i := range d {
		d[i] = append([]des.Time(nil), raw[i]...)
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if i == k {
				continue
			}
			ik := d[i][k]
			if math.IsInf(float64(ik), 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if j == k || j == i {
					continue
				}
				if v := ik + d[k][j]; v < d[i][j] {
					d[i][j] = v
				}
			}
		}
	}
	for i := range d {
		d[i][i] = raw[i][i]
	}
	return d
}

// Shard returns partition i.
func (e *Engine) Shard(i int) *Shard { return e.shards[i] }

// PairLookahead returns the closed (effective) lookahead from shard
// src to shard dst: the raw same-shard floor when src == dst, +Inf for
// pairs with no modeled path.
//
//whvet:allow testonly the matrix tests' view of the closed lookahead; retiring the multi-shard kernel deletes it
func (e *Engine) PairLookahead(src, dst int) des.Time { return e.closed[src][dst] }

// Assign places an entity on a shard. All entities start on shard 0;
// assignment must happen before Run.
func (e *Engine) Assign(ent EntityID, shard int) {
	if e.ran {
		panic("shard: Assign after Run")
	}
	if int(ent) < 0 || int(ent) >= len(e.owner) {
		panic(fmt.Sprintf("shard: entity %d outside [0,%d)", ent, len(e.owner)))
	}
	if shard < 0 || shard >= len(e.shards) {
		panic(fmt.Sprintf("shard: shard %d outside [0,%d)", shard, len(e.shards)))
	}
	e.owner[ent] = int32(shard)
}

// ShardOf returns the shard an entity is assigned to.
//
//whvet:allow testonly the matrix tests' view of entity placement; retiring the multi-shard kernel deletes it
func (e *Engine) ShardOf(ent EntityID) int { return int(e.owner[ent]) }

// Fired returns the total events executed across all shards. Every
// exit — the horizon or the whole cluster running dry — is a pure
// function of simulated time, so the count is deterministic.
func (e *Engine) Fired() uint64 {
	var n uint64
	for _, s := range e.shards {
		n += s.Sim.Fired()
	}
	return n
}

// ShardStats returns per-shard diagnostics, indexed by shard. Call
// after Run returns.
func (e *Engine) ShardStats() []Stats {
	out := make([]Stats, len(e.shards))
	for i, s := range e.shards {
		out[i] = Stats{
			Windows:    s.windows,
			MsgsSent:   s.msgsSent,
			Fired:      s.Sim.Fired(),
			BusySec:    float64(s.busyNs) / 1e9,
			BlockedSec: float64(s.blockedNs) / 1e9,
		}
	}
	return out
}

// Run executes the simulation to the inclusive horizon (events exactly
// at until still fire, matching des.Sim.Run) and returns when every
// shard has finished — at the horizon, or when the whole cluster runs
// out of events (a batch job completing). One shard runs inline on the
// caller's goroutine; more run one goroutine each. Run may be called
// once per Engine.
func (e *Engine) Run(until des.Time) {
	if e.ran {
		panic("shard: Engine.Run called twice")
	}
	e.ran = true
	if len(e.shards) == 1 {
		// The one-shard fast path: no rounds, no channels — the advance
		// loop with the same delivery rule, which is exactly the
		// single-heap kernel.
		e.shards[0].advance(until, true)
		return
	}
	var wg sync.WaitGroup
	for _, s := range e.shards {
		wg.Add(1)
		go func(s *Shard) {
			defer wg.Done()
			s.run(until)
		}(s)
	}
	wg.Wait()
}

// Now returns the shard's current simulated time.
func (s *Shard) Now() des.Time { return s.Sim.Now() }

// Post sends a cross-entity event: act runs on dst's shard at
// Now()+delay. delay must be >= the lookahead floor of the (source
// shard, destination shard) pair — that floor is what makes
// conservative windows safe — and src must be owned by this shard.
// Same-time deliveries are ordered by (src, per-src seq), which is
// independent of the partitioning.
//
//perf:hotpath
func (s *Shard) Post(src, dst EntityID, delay des.Time, act des.Action) {
	e := s.eng
	if int(src) < 0 || int(src) >= len(e.owner) || int(dst) < 0 || int(dst) >= len(e.owner) {
		//whvet:allow hotpath cold panic path: out-of-namespace entities are a wiring bug
		panic(fmt.Sprintf("shard: Post %d->%d outside entity namespace [0,%d)", src, dst, len(e.owner)))
	}
	if e.owner[src] != int32(s.id) {
		//whvet:allow hotpath cold panic path: posting from a foreign entity is a wiring bug
		panic(fmt.Sprintf("shard: Post from entity %d owned by shard %d, not %d", src, e.owner[src], s.id))
	}
	dst32 := e.owner[dst]
	if floor := e.raw[s.id][dst32]; math.IsNaN(float64(delay)) || delay < floor {
		//whvet:allow hotpath cold panic path: a sub-lookahead delay breaks the conservative-window proof, so it must die loudly
		panic(fmt.Sprintf("shard: cross-entity delay %v below lookahead %v for shard pair (%d,%d) at t=%v", delay, floor, s.id, dst32, s.Sim.Now()))
	}
	m := message{arrive: s.Sim.Now() + delay, src: src, seq: e.seqs[src], act: act}
	e.seqs[src]++
	if int(dst32) == s.id {
		s.pushLocal(m)
		return
	}
	p := s.peerBy[dst32]
	p.stage = append(p.stage, m)
	if m.arrive < p.stagedMin {
		p.stagedMin = m.arrive
	}
	s.msgsSent++
}

func (s *Shard) pushLocal(m message) {
	s.local.push(m)
}

// localMin is the earliest event this shard could still execute: next
// heap event, earliest undelivered cross-shard arrival, or earliest
// undelivered same-shard post.
func (s *Shard) localMin() des.Time {
	e := infTime
	if t, ok := s.Sim.PeekNext(); ok {
		e = t
	}
	if s.pendHead < len(s.pending) && s.pending[s.pendHead].arrive < e {
		e = s.pending[s.pendHead].arrive
	}
	if len(s.local) > 0 && s.local[0].arrive < e {
		e = s.local[0].arrive
	}
	return e
}

// eot is the shard's scalar earliest output time: the earliest event
// it could still execute or has already staged for a peer. Used for
// run-dry detection; the per-destination window bounds ride the
// constraint row instead.
func (s *Shard) eot() des.Time {
	e := s.localMin()
	for _, p := range s.peers {
		if p.stagedMin < e {
			e = p.stagedMin
		}
	}
	return e
}

// computeRow fills this shard's constraint row: for every destination
// d, a lower bound on when anything caused by this shard's current
// state (local events, undelivered arrivals, staged sends) can still
// arrive at d. Messages staged directly for d are excluded — they are
// delivered to d this very round, so they are d's local knowledge, not
// a future arrival — but what they can cause d's peers to relay is
// not, which is why every staged arrival bounds every destination
// through the closed matrix.
//
// The diagonal slot carries the bound this shard's own activity puts
// on itself: its staged sends can rebound (stagedMin[k] + L*[k][s]),
// and — crucially — so can events it has not executed yet. An event
// at t executed inside the window can post a request whose reply
// arrives at t plus one round trip, so the window must not extend past
// localMin + min round-trip lookahead. Dropping that term is the
// classic over-wide-window unsoundness: a board's own SAN request,
// issued mid-window, would rebound into its past.
func (s *Shard) computeRow() {
	row := s.rows[s.id]
	lm := s.localMin()
	closed := s.eng.closed
	for d := range row {
		var v des.Time
		if d != s.id {
			v = lm + closed[s.id][d]
		} else {
			v = lm + s.eng.rt[s.id]
		}
		for _, p := range s.peers {
			if math.IsInf(float64(p.stagedMin), 1) {
				continue
			}
			var c des.Time
			if p.shard == d {
				// Messages staged directly for d ride in this very
				// batch, so d merges them before advancing — but their
				// consequences do not: d may execute one inside this
				// round's window and trigger a chain (a SAN reply, a
				// further request) that boomerangs back to d. Any such
				// path leaves d and returns, so it costs at least
				// rt[d], the cheapest round trip out of d.
				c = p.stagedMin + s.eng.rt[d]
			} else {
				c = p.stagedMin + closed[p.shard][d]
			}
			if c < v {
				v = c
			}
		}
		row[d] = v
	}
}

// run is one shard's side of the lockstep round protocol:
//
//	compute the constraint row; flush {sorted staged msgs, row, EOT}
//	to every peer
//	receive one batch from every peer; merge the sorted runs into the
//	pending run; reduce E_d = min over all rows for every destination
//	run dry (all EOTs +Inf), or execute the window [committed, E_self),
//	finishing inclusively at the horizon once E_self has passed it
//
// Every shard computes every E_d from the same N rows, so all shards
// take the final/dry exits in the same round: nobody is left
// blocking on a mailbox, which is the protocol's deadlock-freedom
// argument (each round sends all batches before receiving any, and a
// mailbox holds at most one in-flight batch per round). A shard whose
// horizon window is already done keeps relaying null messages until
// the exit is global.
//
//whvet:allow nodeterm the wall clock is read only when Config.Timed is set, for ShardDiag's busy/blocked telemetry; simulated time and all results come from the event heap (see DESIGN.md §8)
func (s *Shard) run(until des.Time) {
	n := len(s.eng.shards)
	// When timed, one clock read per segment splits the loop into a
	// blocked segment (flush + mailbox waits) and a busy segment
	// (window execution): the shard's parallel-efficiency signal.
	timed := s.eng.timed
	var last time.Time
	if timed {
		last = time.Now()
	}
	lap := func(acc *int64) {
		if timed {
			now := time.Now()
			*acc += now.Sub(last).Nanoseconds()
			last = now
		}
	}
	for parity := 0; ; parity ^= 1 {
		// Receivers read this buffer until they send their next batch,
		// which this shard receives before it rewrites the buffer two
		// rounds from now.
		s.rows[s.id] = s.rowBuf[parity]
		s.computeRow()
		myEOT := s.eot()
		s.eots[s.id] = myEOT
		for _, p := range s.peers {
			var msgs []message // nil: a pure null message
			if len(p.stage) > 0 {
				msgs = p.stage
				slices.SortFunc(msgs, msgCmp)
				p.stage, p.spare = p.spare[:0], msgs
			}
			p.ch <- batch{eot: myEOT, row: s.rows[s.id], msgs: msgs}
			p.stagedMin = infTime
		}
		for i := range s.in {
			in := &s.in[i]
			b := <-in.ch
			s.rows[in.src] = b.row
			s.eots[in.src] = b.eot
			if len(b.msgs) > 0 {
				s.runs = append(s.runs, b.msgs)
			}
		}
		s.mergeRuns()
		lap(&s.blockedNs)
		dry := true
		for _, e := range s.eots {
			if !math.IsInf(float64(e), 1) {
				dry = false
				break
			}
		}
		if dry {
			return // the whole cluster ran dry
		}
		myE, allFinal := infTime, true
		for d := 0; d < n; d++ {
			ed := infTime
			for k := 0; k < n; k++ {
				if s.rows[k][d] < ed {
					ed = s.rows[k][d]
				}
			}
			if !(ed > until) {
				allFinal = false
			}
			if d == s.id {
				myE = ed
			}
		}
		if allFinal {
			// Every shard's remaining window covers the horizon: finish
			// inclusively, everywhere, this round. Sends staged by the
			// final window would arrive past the horizon, so no further
			// exchange is needed.
			if !s.doneFinal {
				s.advance(until, true)
				lap(&s.busyNs)
			}
			return
		}
		if myE > until {
			// This shard's horizon window is safe even though peers still
			// have in-horizon work: execute it once, then keep relaying
			// rows until the exit is global.
			if !s.doneFinal {
				s.advance(until, true)
				s.doneFinal = true
			}
			lap(&s.busyNs)
			continue
		}
		if myE > s.committed {
			s.advance(myE, false)
			lap(&s.busyNs)
			s.committed = myE
			s.windows++
		}
	}
}

// mergeRuns folds the round's received slabs and the unconsumed tail
// of the pending run into one sorted run (a k-way merge over at most
// Shards sorted sources — keys are unique, so the order is total),
// then clears the slabs so their senders can restage into them. The
// old pending array becomes the next round's merge buffer, so
// steady-state rounds allocate nothing.
//
//perf:hotpath
func (s *Shard) mergeRuns() {
	if len(s.runs) == 0 {
		return
	}
	left := s.pending[s.pendHead:]
	total := len(left)
	for _, r := range s.runs {
		total += len(r)
	}
	buf := s.mergeBuf[:0]
	if cap(buf) < total {
		buf = make([]message, 0, total+total/2)
	}
	srcs := append(s.srcScratch[:0], s.runs...)
	if len(left) > 0 {
		srcs = append(srcs, left)
	}
	for {
		best := -1
		for i := range srcs {
			if len(srcs[i]) == 0 {
				continue
			}
			if best == -1 || msgLess(srcs[i][0], srcs[best][0]) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		buf = append(buf, srcs[best][0])
		srcs[best] = srcs[best][1:]
	}
	s.srcScratch = srcs[:0]
	for _, r := range s.runs {
		clear(r) // drop the actions so the sender's slab retains no closures
	}
	clear(s.pending[s.pendHead:])
	old := s.pending
	s.runs = s.runs[:0]
	s.pending = buf
	s.mergeBuf = old[:0]
	s.pendHead = 0
}

// nextArrival peeks the earliest undelivered message across the
// pending run and the local heap.
func (s *Shard) nextArrival() (des.Time, bool) {
	t, ok := infTime, false
	if s.pendHead < len(s.pending) {
		t, ok = s.pending[s.pendHead].arrive, true
	}
	if len(s.local) > 0 && (!ok || s.local[0].arrive < t) {
		t, ok = s.local[0].arrive, true
	}
	return t, ok
}

// advance interleaves message delivery and event execution at event
// granularity up to target. Non-final windows are exclusive (events
// and deliveries strictly before target — arrivals exactly at the
// window edge may still gain same-time company from the next round),
// the final window is inclusive to match des.Sim.Run horizon
// semantics.
//
//perf:hotpath
func (s *Shard) advance(target des.Time, final bool) {
	for {
		na, hasNa := s.Sim.PeekNext()
		if ma, ok := s.nextArrival(); ok {
			if (ma < target || (final && ma == target)) && (!hasNa || ma <= na) {
				s.deliverAt(ma)
				continue
			}
		}
		if hasNa && (na < target || (final && na == target)) {
			s.Sim.RunNext()
			continue
		}
		break
	}
	if final && !math.IsInf(float64(target), 1) {
		s.Sim.Run(target) // nothing left to fire; advances the clock to the horizon
	}
}

// deliverAt moves every undelivered message arriving exactly at t into
// the local event heap, popping the (src, seq)-smaller of the pending
// run head and the local heap top so the order matches the single-heap
// kernel. All possible senders for time t have already executed (their
// events ran at least a lookahead floor earlier), so the batch is
// complete and canonically ordered at any shard count.
//
//perf:hotpath
func (s *Shard) deliverAt(t des.Time) {
	for {
		hasP := s.pendHead < len(s.pending) && s.pending[s.pendHead].arrive == t
		hasL := len(s.local) > 0 && s.local[0].arrive == t
		var m message
		switch {
		case hasP && hasL:
			if msgLess(s.pending[s.pendHead], s.local[0]) {
				m = s.popPending()
			} else {
				m = s.local.pop()
			}
		case hasP:
			m = s.popPending()
		case hasL:
			m = s.local.pop()
		default:
			return
		}
		s.Sim.ScheduleAt(m.arrive, m.act)
	}
}

func (s *Shard) popPending() message {
	m := s.pending[s.pendHead]
	s.pending[s.pendHead] = message{} // drop the action so the run retains no closures
	s.pendHead++
	return m
}
