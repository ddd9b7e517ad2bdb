package main

import "time"

// On the reference host (a 2-vCPU KVM guest on a Xeon; testdata/
// records its fingerprint) the whole guest slows down and speeds up by
// about 25% over minutes as its neighbours load the physical machine,
// while steal time stays near zero, so neither CPU time nor more
// samples remove the drift. A fixed reference kernel, sampled between
// ops, slows down with the guest: in a 7-minute trace the 1-shard
// rack's per-12 s medians spread 11% raw and 1.2% once divided by the
// reference kernel's median over the same window.
//
// So the end-to-end host times are normalized: each is multiplied by
// refNominalSec / (median reference-kernel time of the run), and reads
// as host seconds on the reference host at its quiet speed. The kernel
// uses only the standard library, so no change to the simulator can
// move it.

// refNominalSec is refKernel's median time on the reference host (the
// 2-vCPU Xeon container whose fingerprint testdata/ records) when quiet.
const refNominalSec = 0.0043

// refKernel runs a fixed, allocation-free workload shaped like the
// simulator's hot path — a binary min-heap of float64 event times fed
// by an xorshift generator, with random read-modify-writes into a
// 512 KiB table — and returns its host seconds.
func refKernel() float64 {
	t0 := time.Now()
	var heap [1024]float64
	for i := range heap {
		heap[i] = float64(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	acc := 0.0
	for i := 0; i < 1<<16; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// Pop the minimum and push a later time: replace the root and
		// sift it down.
		v := heap[0] + float64(x%1024)/64
		j := 0
		for {
			c := 2*j + 1
			if c >= len(heap) {
				break
			}
			if c+1 < len(heap) && heap[c+1] < heap[c] {
				c++
			}
			if heap[c] >= v {
				break
			}
			heap[j] = heap[c]
			j = c
		}
		heap[j] = v
		k := (x >> 20) % uint64(len(refTable))
		refTable[k] = refTable[k]*31 + x
		acc += float64(refTable[k] & 0xff)
	}
	refSink += acc
	return time.Since(t0).Seconds()
}

// refTable is package-level because 512 KiB is too big for a stack
// frame; refSink keeps the compiler from dropping the kernel's work.
var (
	refTable [1 << 16]uint64
	refSink  float64
)
