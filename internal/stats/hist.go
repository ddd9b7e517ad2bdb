package stats

import (
	"fmt"
	"math"
	"strings"
)

// Histogram is a log-scaled latency histogram. Buckets grow
// geometrically from Min so that sub-millisecond and multi-second
// latencies are both resolved; quantile queries interpolate within a
// bucket. It is the backing store for QoS checks, which need the 95th
// percentile of very large request populations without retaining them.
type Histogram struct {
	min     float64
	growth  float64
	logG    float64
	buckets []int64
	under   int64 // observations below min
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
		logG:    math.Log(growth),
		buckets: make([]int64, nbuckets),
	}
}

// NewLatencyHistogram returns a histogram tuned for request latencies in
// seconds: 10µs up to ~20 minutes with ~5% relative resolution.
func NewLatencyHistogram() *Histogram {
	return NewHistogram(10e-6, 1.05, 400)
}

func (h *Histogram) bucketOf(x float64) int {
	if x < h.min {
		return -1
	}
	b := int(math.Log(x/h.min) / h.logG)
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	return b
}

// bucketLow returns the lower bound of bucket b.
func (h *Histogram) bucketLow(b int) float64 {
	return h.min * math.Pow(h.growth, float64(b))
}

// Add records one observation (negative values are clamped to 0 and
// counted in the underflow bucket).
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
