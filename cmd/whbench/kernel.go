package main

import (
	"testing"

	"warehousesim/internal/des"
	"warehousesim/internal/des/shard"
)

// The kernel-scaling workload: a synthetic, compute-dense load on the
// sharded engine itself, with dense local event traffic and rare
// cross-shard messages. The rack benchmarks (ShardedTrial*) measure
// the model the paper cares about — but every interactive request
// there round-trips the shared SAN, so their shard coupling is part of
// the physics and their parallel efficiency is bounded by it. This
// workload is the other calibration point: it measures what the
// engine's synchronization costs when the model itself scales, which
// is the number the kernel rows of the parallel-efficiency curve (and
// bench-diff's -eff-floor gate) track.
//
// The trajectory is a pure function of the seed and is partition-
// independent (local timing never depends on cross traffic, and the
// cross pokes only bump a commutative checksum), so the checksum
// doubles as a cheap cross-shard-count invariance probe.
const (
	kernelEntities   = 8    // divisible by every benchmarked shard count
	kernelHorizon    = 0.1  // simulated seconds
	kernelLookahead  = 2e-3 // wide windows: hundreds of local events per round
	kernelCrossEvery = 256  // local events between cross-shard pokes
	kernelSpin       = 256  // per-event arithmetic, the parallelizable work
)

type kernelEnt struct {
	sh     *shard.Shard
	id     shard.EntityID
	peer   *kernelEnt
	rng    uint64
	events int64
	sum    uint64

	stepFn, pokeFn des.Action
}

// step is one dense local event: spin the per-entity LCG (the "work"),
// occasionally poke the next entity cross-shard, and reschedule with a
// deterministic jittered gap well below the lookahead.
func (k *kernelEnt) step() {
	x := k.rng
	for i := 0; i < kernelSpin; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	k.rng = x
	k.sum += x
	k.events++
	if k.events%kernelCrossEvery == 0 {
		k.sh.Post(k.id, k.peer.id, 2*kernelLookahead, k.peer.pokeFn)
	}
	dt := des.Time(5e-6) + des.Time(x>>40)*1e-12 // 5–22 µs, mean ~13 µs
	k.sh.Sim.Schedule(dt, k.stepFn)
}

// poke runs on the receiving entity's shard and touches only its own
// commutative state, so delivery order across shard counts cannot show.
func (k *kernelEnt) poke() { k.sum++ }

// kernelRun executes one kernel trial and returns the checksum over
// all entities (identical at every shard count) and the events fired.
func kernelRun(shards int, seed uint64) (sum uint64, fired uint64, err error) {
	eng, err := shard.NewEngine(shard.Config{
		Shards:    shards,
		Entities:  kernelEntities,
		Lookahead: kernelLookahead,
	})
	if err != nil {
		return 0, 0, err
	}
	ents := make([]*kernelEnt, kernelEntities)
	for i := range ents {
		sid := i * shards / kernelEntities
		eng.Assign(shard.EntityID(i), sid)
		ents[i] = &kernelEnt{
			sh:  eng.Shard(sid),
			id:  shard.EntityID(i),
			rng: seed + 0x9e3779b97f4a7c15*uint64(i+1),
		}
		ents[i].stepFn = ents[i].step
		ents[i].pokeFn = ents[i].poke
	}
	for i, k := range ents {
		k.peer = ents[(i+1)%kernelEntities]
		k.sh.Sim.Schedule(des.Time(i+1)*1e-6, k.stepFn)
	}
	eng.Run(kernelHorizon)
	for _, k := range ents {
		sum += k.sum
	}
	return sum, eng.Fired(), nil
}

// kernelTrial benchmarks one kernel trial at the given shard count.
func kernelTrial(shards int, seed uint64) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := kernelRun(shards, seed); err != nil {
				b.Fatal(err)
			}
		}
	}
}
