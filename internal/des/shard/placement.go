package shard

import "fmt"

// PlaceBlock assigns work units (the rack model's enclosures) to
// shards with a contiguous split: unit u goes to shard u*shards/units,
// preserving unit order. It is a pure function of its inputs — no map
// iteration, no randomness — so the placement is reproducible from the
// run manifest's unit and shard counts alone.
func PlaceBlock(units, shards int) []int {
	if units < 0 || shards <= 0 {
		panic(fmt.Sprintf("shard: PlaceBlock(%d, %d): need units >= 0 and shards > 0", units, shards))
	}
	asn := make([]int, units)
	for u := range asn {
		asn[u] = u * shards / units
	}
	return asn
}
