package shard

import (
	"math"
	"testing"

	"warehousesim/internal/des"
)

func inf() des.Time { return des.Time(math.Inf(1)) }

// mat builds a Shards x Shards matrix with the given diagonal and
// off-diagonal values.
func mat(n int, diag, off des.Time) [][]des.Time {
	m := make([][]des.Time, n)
	for i := range m {
		m[i] = make([]des.Time, n)
		for j := range m[i] {
			if i == j {
				m[i][j] = diag
			} else {
				m[i][j] = off
			}
		}
	}
	return m
}

// TestMatrixValidation: NewEngine rejects malformed matrices — the
// wrong shape, NaN or negative entries, and zero finite off-diagonal
// floors (no safe window exists at a zero floor) — while accepting
// +Inf off-diagonals (pairs with no modeled traffic) and a zero
// diagonal (same-shard posts have no conservative constraint).
func TestMatrixValidation(t *testing.T) {
	ok := func(m [][]des.Time) error {
		_, err := NewEngine(Config{Shards: len(m), Entities: 4, LookaheadMatrix: m})
		return err
	}
	if err := ok(mat(3, 0, 1e-4)); err != nil {
		t.Errorf("valid matrix rejected: %v", err)
	}
	m := mat(3, 0, 1e-4)
	m[0][2], m[2][0] = inf(), inf()
	if err := ok(m); err != nil {
		t.Errorf("matrix with +Inf pair rejected: %v", err)
	}
	if err := ok(mat(2, 0, 1e-4)[:1]); err == nil {
		t.Error("wrong row count accepted")
	}
	short := mat(2, 0, 1e-4)
	short[1] = short[1][:1]
	if err := ok(short); err == nil {
		t.Error("ragged row accepted")
	}
	bad := mat(2, 0, 1e-4)
	bad[0][1] = des.Time(math.NaN())
	if err := ok(bad); err == nil {
		t.Error("NaN entry accepted")
	}
	bad = mat(2, 0, 1e-4)
	bad[1][0] = -1
	if err := ok(bad); err == nil {
		t.Error("negative entry accepted")
	}
	bad = mat(2, 0, 1e-4)
	bad[0][1] = 0
	if err := ok(bad); err == nil {
		t.Error("zero off-diagonal floor accepted")
	}
}

// TestMatrixClosure: windows derive from the min-plus closure, so a
// cheap relay path must beat an expensive direct entry, unreachable
// pairs must stay +Inf, and the diagonal must keep its raw floor.
func TestMatrixClosure(t *testing.T) {
	m := mat(3, 5e-5, inf())
	m[0][1], m[1][2] = 1e-4, 1e-4 // relay 0->1->2 exists
	m[0][2] = 1e-2                // direct path is 50x the relay
	m[1][0], m[2][1] = 2e-4, 2e-4
	eng, err := NewEngine(Config{Shards: 3, Entities: 3, LookaheadMatrix: m})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.PairLookahead(0, 2); got != 2e-4 {
		t.Errorf("closed[0][2] = %v, want relay cost 2e-4", got)
	}
	if got := eng.PairLookahead(2, 0); got != 4e-4 {
		t.Errorf("closed[2][0] = %v, want relay cost 4e-4", got)
	}
	if got := eng.PairLookahead(0, 0); got != 5e-5 {
		t.Errorf("closed diagonal = %v, want the raw floor 5e-5", got)
	}
	// Fully decoupled corner: all off-diagonals +Inf stays +Inf.
	eng2, err := NewEngine(Config{Shards: 2, Entities: 2, LookaheadMatrix: mat(2, 0, inf())})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(float64(eng2.PairLookahead(0, 1)), 1) {
		t.Error("unreachable pair gained a finite closed entry")
	}
}

// TestMatrixFloorEnforcement: Post validates against the raw floor of
// the exact (src shard, dst shard) pair — a delay legal for one pair
// must still panic on a tighter pair, and +Inf pairs refuse all posts.
func TestMatrixFloorEnforcement(t *testing.T) {
	m := mat(3, 1e-5, 1e-4)
	m[0][2], m[2][0] = inf(), inf()
	m[0][1] = 5e-4 // pair (0,1) has a 5x tighter-than-nothing floor
	eng, err := NewEngine(Config{Shards: 3, Entities: 3, LookaheadMatrix: m})
	if err != nil {
		t.Fatal(err)
	}
	eng.Assign(1, 1)
	eng.Assign(2, 2)
	s0, s1 := eng.Shard(0), eng.Shard(1)

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	// At the pair floor: fine.
	s1.Post(1, 0, 1e-4, func() {})
	// Below the (0,1) floor even though it clears the generic 1e-4.
	mustPanic("Post below the pair floor", func() { s0.Post(0, 1, 2e-4, func() {}) })
	// Same-shard post below the diagonal floor.
	mustPanic("same-shard Post below the diagonal", func() { s0.Post(0, 0, 1e-6, func() {}) })
	// A pair with no modeled path refuses any delay.
	mustPanic("Post on a +Inf pair", func() { s0.Post(0, 2, 1e9, func() {}) })
}

// TestDeterministicNonUniformMatrix is the matrix analogue of the core
// contract: the toy model over heterogeneous per-pair floors (every
// finite entry at or below the posts' minimum delay, one tighter pair,
// plus relay-favoring asymmetry) still reproduces the single-shard
// history exactly.
func TestDeterministicNonUniformMatrix(t *testing.T) {
	const nodes = 24
	la := des.Time(1e-4)
	until := des.Time(0.2)
	refFP, refFired := runToy(t, 1, nodes, la, until)
	for _, shards := range []int{2, 4} {
		m := mat(shards, 0, la)
		for i := 0; i < shards; i++ {
			m[i][(i+1)%shards] = la * 3 / 4 // asymmetric ring of cheaper hops
		}
		m[0][1] = la / 2 // one tighter pair: windows shrink, results must not
		eng, err := NewEngine(Config{Shards: shards, Entities: nodes, LookaheadMatrix: m})
		if err != nil {
			t.Fatal(err)
		}
		tn := wireToy(t, eng, nodes, la, until, 0)
		tn.eng.Run(until)
		if fp := tn.fingerprint(); fp != refFP {
			t.Errorf("shards=%d non-uniform matrix: fingerprint %x != single-shard %x", shards, fp, refFP)
		}
		if fired := tn.eng.Fired(); fired != refFired {
			t.Errorf("shards=%d non-uniform matrix: fired %d != single-shard %d", shards, fired, refFired)
		}
	}
}

// TestMergeDeterminismAdversarial drives the k-way batch merge with
// adversarial interleavings: every sender posts to one victim shard
// with identical arrival times (so ordering rests entirely on the
// (src, seq) tie-break), across several rounds, with same-shard posts
// racing the cross-shard run at the same keys.
func TestMergeDeterminismAdversarial(t *testing.T) {
	const (
		senders = 6 // entities 1..senders post at entity 0
		rounds  = 40
		burst   = 5 // messages per sender per wave, same arrival time
	)
	la := des.Time(1e-3)
	run := func(shards int) (uint64, uint64) {
		eng, err := NewEngine(Config{Shards: shards, Entities: senders + 1, LookaheadMatrix: mat(shards, la, la)})
		if err != nil {
			t.Fatal(err)
		}
		// Victim on shard 0; senders spread round-robin over the rest
		// (all co-resident at shards=1).
		for i := 1; i <= senders; i++ {
			eng.Assign(EntityID(i), (i-1)%shards)
		}
		var h uint64
		seq := 0
		for i := 1; i <= senders; i++ {
			id := EntityID(i)
			sh := eng.Shard(eng.ShardOf(id))
			var wave func()
			i := i
			wave = func() {
				for b := 0; b < burst; b++ {
					// Identical arrival time for every sender and burst:
					// the merge must fall back to (src, seq) everywhere.
					payload := uint64(i)<<32 | uint64(b)
					sh.Post(id, 0, la, func() {
						seq++
						h = mix(h, mix(payload, uint64(seq)))
					})
				}
				sh.Sim.Schedule(la, wave)
			}
			sh.Sim.Schedule(0, wave)
		}
		eng.Run(des.Time(rounds) * la)
		return h, eng.Fired()
	}
	refH, refFired := run(1)
	if refFired == 0 {
		t.Fatal("reference run fired nothing")
	}
	for _, shards := range []int{2, 3, 4, 7} {
		hh, fired := run(shards)
		if hh != refH {
			t.Errorf("shards=%d: delivery-order hash %x != single-shard %x", shards, hh, refH)
		}
		if fired != refFired {
			t.Errorf("shards=%d: fired %d != single-shard %d", shards, fired, refFired)
		}
	}
}

// FuzzShardDeterminism generalizes the core contract over generated
// inputs: any shard count from 2 to 8, any node count, any toy-model
// seed and any per-pair floors in (0, la] must reproduce the
// single-shard fingerprint and event count. Floor byte b maps to
// la*(b+1)/256; the bytes cycle over the matrix in row-major order.
func FuzzShardDeterminism(f *testing.F) {
	f.Add(uint8(2), uint8(8), uint64(0), []byte(nil))
	f.Add(uint8(4), uint8(24), uint64(1), []byte{127, 191, 255})
	f.Add(uint8(7), uint8(5), uint64(42), []byte{0, 255, 64})
	f.Fuzz(func(t *testing.T, shards, nodes uint8, seed uint64, floors []byte) {
		const la, until = des.Time(1e-4), des.Time(0.02)
		n := 2 + int(shards)%7
		nn := 1 + int(nodes)%32
		m := mat(n, la, la)
		if len(floors) > 0 {
			for k := range n * n {
				m[k/n][k%n] = la * des.Time(int(floors[k%len(floors)])+1) / 256
			}
		}
		run := func(cfg Config) (uint64, uint64) {
			eng, err := NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tn := wireToy(t, eng, nn, la, until, seed)
			eng.Run(until)
			return tn.fingerprint(), eng.Fired()
		}
		refFP, refFired := run(Config{Shards: 1, Entities: nn, LookaheadMatrix: mat(1, la, la)})
		fp, fired := run(Config{Shards: n, Entities: nn, LookaheadMatrix: m})
		if fp != refFP || fired != refFired {
			t.Fatalf("shards=%d nodes=%d seed=%d: fingerprint %x fired %d, single-shard %x fired %d",
				n, nn, seed, fp, fired, refFP, refFired)
		}
	})
}
