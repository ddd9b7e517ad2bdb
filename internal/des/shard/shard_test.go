package shard

import (
	"math"
	"testing"

	"warehousesim/internal/des"
)

// mix is a cheap splitmix-style hash used to fingerprint a run: every
// model action folds what happened into a per-node accumulator, so two
// runs agree on the fingerprint only if every event fired in the same
// order at the same time with the same inputs.
func mix(h, v uint64) uint64 {
	h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	h *= 0xbf58476d1ce4e5b9
	return h ^ (h >> 31)
}

func timeBits(t des.Time) uint64 { return math.Float64bits(float64(t)) }

// node is one toy entity: it ticks on a coarse time lattice (so
// same-time collisions across entities are common, stressing the
// canonical tie-break), mutates only its own state, and posts messages
// to pseudo-randomly chosen peers.
type node struct {
	id    EntityID
	sh    *Shard
	rng   uint64
	sum   uint64
	ticks int
}

func (n *node) rand() uint64 {
	n.rng ^= n.rng << 13
	n.rng ^= n.rng >> 7
	n.rng ^= n.rng << 17
	return n.rng
}

type toyNet struct {
	eng   *Engine
	nodes []*node
	la    des.Time
	until des.Time
}

// buildToy wires nNodes entities round-robin onto nShards shards. Each
// node self-schedules lattice ticks; every tick posts to a random peer
// with a lattice-quantized delay, and receivers sometimes schedule a
// same-time local follow-up — the worst case for ordering stability.
func buildToy(t *testing.T, nShards, nNodes int, la, until des.Time) *toyNet {
	t.Helper()
	eng, err := NewEngine(Config{Shards: nShards, Entities: nNodes, LookaheadMatrix: mat(nShards, la, la)})
	if err != nil {
		t.Fatal(err)
	}
	return wireToy(t, eng, nNodes, la, until, 0)
}

// wireToy attaches the toy model to an already-built engine, so matrix
// tests can run the same workload over non-uniform lookahead floors.
// Post delays are always >= la, so any matrix whose finite entries stay
// at or below la keeps every post legal. seed perturbs every node's
// random stream, giving the fuzz target a family of distinct histories.
func wireToy(t *testing.T, eng *Engine, nNodes int, la, until des.Time, seed uint64) *toyNet {
	t.Helper()
	nShards := len(eng.shards)
	tn := &toyNet{eng: eng, la: la, until: until}
	for i := 0; i < nNodes; i++ {
		id := EntityID(i)
		eng.Assign(id, i%nShards)
		rng := uint64(i)*0x9e3779b97f4a7c15 + 1 + seed*0xbf58476d1ce4e5b9
		if rng == 0 {
			rng = 1 // xorshift's fixed point
		}
		n := &node{id: id, sh: eng.Shard(i % nShards), rng: rng}
		tn.nodes = append(tn.nodes, n)
	}
	step := la / 2
	for _, n := range tn.nodes {
		n := n
		var tick func()
		tick = func() {
			now := n.sh.Now()
			n.ticks++
			n.sum = mix(n.sum, timeBits(now))
			r := n.rand()
			if r%2 == 0 {
				dst := tn.nodes[int(n.rand()%uint64(len(tn.nodes)))]
				delay := la + des.Time(n.rand()%4)*step
				srcID, payload := n.id, n.rand()
				n.sh.Post(n.id, dst.id, delay, func() {
					at := dst.sh.Now()
					dst.sum = mix(dst.sum, mix(uint64(srcID)<<32|payload&0xffffffff, timeBits(at)))
					if payload%3 == 0 {
						// Same-time local follow-up: exercises seq
						// assignment right after a delivery.
						dst.sh.Sim.Schedule(0, func() {
							dst.sum = mix(dst.sum, timeBits(dst.sh.Now()))
						})
					}
				})
			}
			n.sh.Sim.Schedule(des.Time(1+n.rand()%5)*step, tick)
		}
		n.sh.Sim.Schedule(des.Time(1+n.rand()%3)*step, tick)
	}
	return tn
}

// fingerprint folds every node's accumulator and tick count into one
// value, in entity order (partition-independent by construction).
func (tn *toyNet) fingerprint() uint64 {
	var h uint64
	for _, n := range tn.nodes {
		h = mix(h, n.sum)
		h = mix(h, uint64(n.ticks))
	}
	return h
}

func runToy(t *testing.T, nShards, nNodes int, la, until des.Time) (uint64, uint64) {
	tn := buildToy(t, nShards, nNodes, la, until)
	tn.eng.Run(until)
	return tn.fingerprint(), tn.eng.Fired()
}

// TestDeterministicAcrossShardCounts is the core contract: the same
// model partitioned 1 to 8 ways produces the identical event history,
// including heavy same-time collisions and cross-shard messaging.
func TestDeterministicAcrossShardCounts(t *testing.T) {
	const nodes = 24
	la := des.Time(1e-4)
	until := des.Time(0.2)
	refFP, refFired := runToy(t, 1, nodes, la, until)
	if refFired == 0 {
		t.Fatal("reference run fired no events")
	}
	for _, shards := range []int{2, 3, 4, 5, 6, 8} {
		fp, fired := runToy(t, shards, nodes, la, until)
		if fp != refFP {
			t.Errorf("shards=%d: fingerprint %x != single-shard %x", shards, fp, refFP)
		}
		if fired != refFired {
			t.Errorf("shards=%d: fired %d != single-shard %d", shards, fired, refFired)
		}
	}
}

// TestTinyLookaheadCompletes drives many synchronization windows per
// simulated second (lookahead 1000x smaller than the horizon spacing
// used above) to shake out window-boundary livelocks under -race.
func TestTinyLookaheadCompletes(t *testing.T) {
	refFP, _ := runToy(t, 1, 8, 1e-6, 0.002)
	fp, _ := runToy(t, 4, 8, 1e-6, 0.002)
	if fp != refFP {
		t.Errorf("tiny lookahead: fingerprint %x != single-shard %x", fp, refFP)
	}
}

// TestZeroLookaheadRejected: a conservative engine has no safe window
// at zero lookahead, so construction must fail rather than deadlock.
func TestZeroLookaheadRejected(t *testing.T) {
	if _, err := NewEngine(Config{Shards: 4, Entities: 4, LookaheadMatrix: mat(4, 0, 0)}); err == nil {
		t.Error("NewEngine accepted zero lookahead with 4 shards")
	}
	nan := des.Time(math.NaN())
	if _, err := NewEngine(Config{Shards: 2, Entities: 4, LookaheadMatrix: mat(2, nan, nan)}); err == nil {
		t.Error("NewEngine accepted NaN lookahead")
	}
	if _, err := NewEngine(Config{Shards: 4, Entities: 4, LookaheadMatrix: mat(4, -1, -1)}); err == nil {
		t.Error("NewEngine accepted negative lookahead")
	}
	if _, err := NewEngine(Config{Shards: 2, Entities: 4}); err == nil {
		t.Error("NewEngine accepted a missing lookahead matrix")
	}
	// One shard is the single-heap kernel; zero lookahead is fine there.
	if _, err := NewEngine(Config{Shards: 1, Entities: 4, LookaheadMatrix: mat(1, 0, 0)}); err != nil {
		t.Errorf("NewEngine rejected 1 shard at zero lookahead: %v", err)
	}
}

// TestPostBelowLookaheadPanics: delays under the lookahead would break
// the conservative safety argument, so Post must refuse them loudly.
func TestPostBelowLookaheadPanics(t *testing.T) {
	eng, err := NewEngine(Config{Shards: 2, Entities: 2, LookaheadMatrix: mat(2, 1e-3, 1e-3)})
	if err != nil {
		t.Fatal(err)
	}
	eng.Assign(1, 1)
	s := eng.Shard(0)
	defer func() {
		if recover() == nil {
			t.Error("Post below lookahead did not panic")
		}
	}()
	s.Post(0, 1, 1e-4, func() {})
}

// TestHorizonInclusive: a message arriving exactly at the horizon must
// be delivered and fire, matching des.Sim.Run's inclusive semantics.
func TestHorizonInclusive(t *testing.T) {
	for _, shards := range []int{1, 2} {
		eng, err := NewEngine(Config{Shards: shards, Entities: 2, LookaheadMatrix: mat(shards, 0.5, 0.5)})
		if err != nil {
			t.Fatal(err)
		}
		if shards == 2 {
			eng.Assign(1, 1)
		}
		s0 := eng.Shard(0)
		fired := false
		s0.Sim.Schedule(0.5, func() {
			s0.Post(0, 1, 0.5, func() { fired = true })
		})
		eng.Run(1.0)
		if !fired {
			t.Errorf("shards=%d: message arriving exactly at the horizon did not fire", shards)
		}
	}
}

// TestIdleShardsRelayProgress: with all activity on one shard and the
// rest idle, EOT-carrying null messages must let the busy shard reach
// the horizon in a number of rounds proportional to the event count,
// not horizon/lookahead — otherwise sparse racks would degenerate into
// null-message ping-pong (the classic asynchronous CMB creep).
func TestIdleShardsRelayProgress(t *testing.T) {
	la := des.Time(1e-6)
	until := des.Time(1.0) // one million lookahead quanta
	eng, err := NewEngine(Config{Shards: 3, Entities: 3, LookaheadMatrix: mat(3, la, la)})
	if err != nil {
		t.Fatal(err)
	}
	eng.Assign(1, 1)
	eng.Assign(2, 2)
	s0 := eng.Shard(0)
	count := 0
	const step = 1.0 / 128 // exact in binary, so the tick count is exact
	var tick func()
	tick = func() {
		count++
		s0.Sim.Schedule(step, tick) // 128 sparse events over the run
	}
	s0.Sim.Schedule(step, tick)
	eng.Run(until)
	if count != 128 {
		t.Fatalf("expected 128 ticks, got %d", count)
	}
	for i, st := range eng.ShardStats() {
		if st.Windows > 10000 {
			t.Errorf("shard %d committed %d windows for 100 events: promises are not relaying (lockstep lookahead windows)", i, st.Windows)
		}
	}
}

// TestShardStats sanity-checks the diagnostics plumbing: per-shard
// fired counts sum to the engine's, a 4-shard run stages cross-shard
// messages and commits windows, and every shard's round loop records a
// non-negative, non-zero wall-clock split.
func TestShardStats(t *testing.T) {
	tn := buildToy(t, 4, 16, 1e-4, 0.1)
	tn.eng.Run(0.1)
	st := tn.eng.ShardStats()
	if len(st) != 4 {
		t.Fatalf("want 4 stats, got %d", len(st))
	}
	var fired uint64
	var sent int64
	for i, s := range st {
		fired += s.Fired
		sent += s.MsgsSent
		if s.Windows == 0 {
			t.Errorf("shard %d committed no windows", i)
		}
		if s.BusySec < 0 || s.BlockedSec < 0 || s.BusySec+s.BlockedSec == 0 {
			t.Errorf("shard %d wall-clock split busy %g s, blocked %g s", i, s.BusySec, s.BlockedSec)
		}
	}
	if fired != tn.eng.Fired() {
		t.Errorf("stats fired %d != engine fired %d", fired, tn.eng.Fired())
	}
	if sent == 0 {
		t.Error("no cross-shard messages in a 4-shard run")
	}
}
