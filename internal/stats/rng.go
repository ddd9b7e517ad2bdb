// Package stats provides the deterministic random-number and statistics
// substrate used by every simulator in this repository.
//
// All model randomness flows through RNG so that experiments are
// reproducible bit-for-bit from a seed. The package also provides the
// probability distributions the paper's workload generators need (Zipf
// keyword popularity, exponential think times, log-normal object sizes,
// empirical action mixes) and the measurement helpers (histograms,
// percentile trackers, harmonic means) used to compute QoS-constrained
// throughput.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xorshift64* with a splitmix64-seeded state). It intentionally does not
// use math/rand so that the generated streams are stable across Go
// releases; the paper's experiments must replay identically forever.
//
// The zero value is not valid; use NewRNG.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded from seed. Two generators built from
// the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator to the stream identified by seed.
//
//whvet:allow nodeterm this is the seed-mixing substrate itself; every other package must derive seeds through it rather than repeat these constants
func (r *RNG) Seed(seed uint64) {
	// splitmix64 step guarantees a well-mixed, non-zero state even for
	// small or zero seeds.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x2545f4914f6cdd1d
	}
	r.state = z
}

// Uint64 returns the next 64 uniformly distributed bits.
//
//whvet:allow nodeterm the xorshift64* output multiplier lives here by definition; this is the generator the check steers everyone toward
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// SweepSeed derives the seed for cell index i of a parameter sweep from
// the sweep's base seed: the index is spread by the golden-ratio
// constant, xor-folded into the base, and splitmix-mixed (via Seed), so
// cells get decorrelated streams while any (base, i) pair reproduces the
// same seed forever — the contract the deterministic parallel sweep
// engine (experiments' runCells) relies on when cells need their own
// randomness. Deriving from position, not from a shared RNG, is what
// makes cell seeds independent of execution order.
//
//whvet:allow nodeterm golden-ratio index spreading is part of the sanctioned derivation substrate (the alternative callers are pointed at)
//whvet:allow testonly cmd/whperf, a separate module the load does not include, picks its input index with it
func SweepSeed(base, i uint64) uint64 {
	var r RNG
	r.Seed(base ^ (i+1)*0x9e3779b97f4a7c15)
	return r.Uint64()
}

// EntitySeed derives an entity-scoped RNG seed from a run's root seed
// and the entity's stable (group, index) coordinates — e.g. (enclosure,
// client slot) in the sharded rack. It is a pure function of its
// arguments: the resulting per-entity streams are independent of
// partitioning, shard count, and setup iteration order, which is what
// keeps sharded runs bit-identical to flat ones. The mixing is one
// splitmix64 finalization over a golden-ratio spread of the
// coordinates; the exact constants are frozen — committed goldens
// replay through them.
//
//whvet:allow nodeterm part of the seed-derivation substrate; hoisted here so simulation packages never hand-roll the constants
func EntitySeed(root uint64, group, index int) uint64 {
	z := root + 0x9e3779b97f4a7c15*uint64(group+1) + 0xbf58476d1ce4e5b9*uint64(index+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high-quality bits -> [0,1) with full float53 resolution.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("stats: Int63n called with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// ExpFloat64 returns an exponentially distributed float64 with mean 1.
func (r *RNG) ExpFloat64() float64 {
	// Inverse-CDF; clamp the uniform away from 0 to avoid +Inf.
	u := r.Float64()
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -math.Log(1 - u)
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}
