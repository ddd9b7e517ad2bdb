package stats

import (
	"math"
	"sync"

	"warehousesim/internal/bucket"
)

// The latency layout, the one every Histogram uses: bucket b holds
// [latMin·latGrowth^b, latMin·latGrowth^(b+1)) seconds, so 10 µs up to
// ~20 minutes is resolved to ~5%.
const (
	latMin     = 10e-6
	latGrowth  = 1.05
	latBuckets = 400
)

// latencyBucketOf defines the latency layout: the bucket of x by the
// natural logarithm, the top bucket everything above, bucket 0
// everything below. A value whose ratio to latMin overflows is above
// every bucket. Only the build of latencyTable evaluates it.
func latencyBucketOf(x float64) int {
	r := x / latMin
	if math.IsInf(r, 1) {
		return latBuckets - 1
	}
	return min(max(int(math.Log(r)/math.Log(latGrowth)), 0), latBuckets-1)
}

// latencyTable is the latency layout's bucket table. The first
// NewLatencyHistogram builds it, so a process that makes no histogram
// never pays the build, and Add reads it without a once-check.
var (
	latencyOnce  sync.Once
	latencyTable *bucket.Table
)

// Histogram is a log-scaled latency histogram on the latency layout:
// sub-millisecond and multi-second latencies are both resolved, and
// quantile queries interpolate within a bucket. It is the backing store
// for QoS checks, which need the 95th percentile of very large request
// populations without retaining them. The zero value is not usable;
// call NewLatencyHistogram.
type Histogram struct {
	buckets [latBuckets]int64
	under   int64 // observations below latMin, and NaN
	count   int64
	sum     float64
	maxSeen float64
}

// NewLatencyHistogram returns an empty histogram of request latencies
// in seconds.
func NewLatencyHistogram() *Histogram {
	latencyOnce.Do(func() { latencyTable = bucket.New(latBuckets, latencyBucketOf) })
	return &Histogram{}
}

// bucketOf returns the bucket of x, or -1 for the underflow bucket,
// which holds values below latMin and NaN. Values too large for the
// layout, +Inf included, land in the top bucket.
func bucketOf(x float64) int {
	if !(x >= latMin) {
		return -1
	}
	return latencyTable.Index(x)
}

// bucketLow returns the lower bound of bucket b.
func bucketLow(b int) float64 {
	return latMin * math.Pow(latGrowth, float64(b))
}

// Add records one observation. Values below latMin, negatives and NaN
// count in the underflow bucket; values above the top bucket's bound,
// +Inf included, count in the top bucket.
func (h *Histogram) Add(x float64) {
	h.count++
	h.sum += x
	if x > h.maxSeen {
		h.maxSeen = x
	}
	b := bucketOf(x)
	if b < 0 {
		h.under++
		return
	}
	h.buckets[b]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the mean of all observations.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns the q-quantile (0 < q <= 1) with intra-bucket linear
// interpolation. It returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		q = 1e-9
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.count)))
	seen := h.under
	if target <= seen {
		return latMin / 2
	}
	for b, c := range h.buckets[:] {
		if c == 0 {
			continue
		}
		if seen+c >= target {
			lo := bucketLow(b)
			hi := lo * latGrowth
			frac := float64(target-seen) / float64(c)
			v := lo + (hi-lo)*frac
			if v > h.maxSeen && h.maxSeen > 0 {
				v = h.maxSeen
			}
			return v
		}
		seen += c
	}
	return h.maxSeen
}

// Reset clears all observations.
func (h *Histogram) Reset() {
	*h = Histogram{}
}

// Merge folds o's observations into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	h.count += o.count
	h.sum += o.sum
	h.under += o.under
	if o.maxSeen > h.maxSeen {
		h.maxSeen = o.maxSeen
	}
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}
