package main

import "testing"

// TestKernelRunInvariant: the kernel workload's checksum and event
// count are pure functions of the seed — identical at every shard
// count — so its KernelTrial bench rows time one trajectory.
func TestKernelRunInvariant(t *testing.T) {
	refSum, refFired, err := kernelRun(1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if refSum == 0 || refFired == 0 {
		t.Fatalf("degenerate reference: sum %d, fired %d", refSum, refFired)
	}
	for _, shards := range []int{2, 4, 8} {
		sum, fired, err := kernelRun(shards, 7)
		if err != nil {
			t.Fatal(err)
		}
		if sum != refSum || fired != refFired {
			t.Errorf("shards=%d: (sum %d, fired %d) != single-shard (%d, %d)",
				shards, sum, fired, refSum, refFired)
		}
	}
	// A different seed must change the checksum, or the probe is inert.
	otherSum, _, err := kernelRun(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if otherSum == refSum {
		t.Error("checksum did not move with the seed")
	}
}
