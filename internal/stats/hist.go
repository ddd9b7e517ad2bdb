package stats

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"warehousesim/internal/bucket"
)

// Histogram is a log-scaled latency histogram. Buckets grow
// geometrically from Min so that sub-millisecond and multi-second
// latencies are both resolved; quantile queries interpolate within a
// bucket. It is the backing store for QoS checks, which need the 95th
// percentile of very large request populations without retaining them.
type Histogram struct {
	min     float64
	growth  float64
	table   *bucket.Table // shared by every histogram of the layout
	buckets []int64
	under   int64 // observations below min, and NaN
	count   int64
	sum     float64
	maxSeen float64
}

// NewHistogram builds a histogram with nbuckets geometric buckets
// starting at min and growing by factor growth (> 1) per bucket.
func NewHistogram(min float64, growth float64, nbuckets int) *Histogram {
	if min <= 0 || growth <= 1 || nbuckets <= 0 {
		panic(fmt.Sprintf("stats: invalid histogram spec min=%g growth=%g n=%d", min, growth, nbuckets))
	}
	return &Histogram{
		min:     min,
		growth:  growth,
		table:   tableOf(layout{min, growth, nbuckets}),
		buckets: make([]int64, nbuckets),
	}
}

// layout identifies a bucket layout: its first bound, growth factor and
// bucket count.
type layout struct {
	min, growth float64
	n           int
}

// tables holds one bucket table per layout, built on the layout's
// first use: a run makes one histogram per trial, all of one layout.
var tables struct {
	sync.Mutex
	m map[layout]*bucket.Table
}

// tableOf returns l's table, building it on the layout's first use.
func tableOf(l layout) *bucket.Table {
	tables.Lock()
	defer tables.Unlock()
	t := tables.m[l]
	if t == nil {
		if tables.m == nil {
			tables.m = map[layout]*bucket.Table{}
		}
		t = bucket.New(l.n, l.bucketOf)
		tables.m[l] = t
	}
	return t
}

// bucketOf defines the layout: bucket b holds [min·growth^b,
// min·growth^(b+1)) by the natural logarithm, the top bucket everything
// above, bucket 0 everything below. A value whose ratio to min
// overflows is above every bucket. Only the build of the layout's
// table evaluates it.
func (l layout) bucketOf(x float64) int {
	r := x / l.min
	if math.IsInf(r, 1) {
		return l.n - 1
	}
	return min(max(int(math.Log(r)/math.Log(l.growth)), 0), l.n-1)
}

// NewLatencyHistogram returns a histogram tuned for request latencies in
// seconds: 10µs up to ~20 minutes with ~5% relative resolution.
func NewLatencyHistogram() *Histogram {
	return NewHistogram(10e-6, 1.05, 400)
}

// bucketOf returns the bucket of x, or -1 for the underflow bucket,
// which holds values below min and NaN. Values too large for the
// layout, +Inf included, land in the top bucket.
func (h *Histogram) bucketOf(x float64) int {
	if !(x >= h.min) {
		return -1
	}
	return h.table.Index(x)
}

// bucketLow returns the lower bound of bucket b.
func (h *Histogram) bucketLow(b int) float64 {
	return h.min * math.Pow(h.growth, float64(b))
}

// Add records one observation. Values below min, negatives and NaN
// count in the underflow bucket; values above the top bucket's bound,
// +Inf included, count in the top bucket.
func (h *Histogram) Add(x float64) {
	h.count++
	h.sum += x
	if x > h.maxSeen {
		h.maxSeen = x
	}
	b := h.bucketOf(x)
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
		return h.min / 2
	}
	for b, c := range h.buckets {
		if c == 0 {
			continue
		}
		if seen+c >= target {
			lo := h.bucketLow(b)
			hi := lo * h.growth
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

// Reset clears all observations while keeping the bucket layout.
func (h *Histogram) Reset() {
	for i := range h.buckets {
		h.buckets[i] = 0
	}
	h.under, h.count, h.sum, h.maxSeen = 0, 0, 0, 0
}

// String renders a compact summary.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%.4gs p50=%.4gs p95=%.4gs p99=%.4gs max=%.4gs",
		h.count, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.maxSeen)
	return b.String()
}

// Merge folds o's observations into h. Both histograms must share the
// same bucket layout (min, growth, bucket count) — merging across
// layouts would misbin counts, so it panics instead.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	if h.min != o.min || h.growth != o.growth || len(h.buckets) != len(o.buckets) {
		panic("stats: merging histograms with different bucket layouts")
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
