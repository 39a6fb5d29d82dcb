// Package stats aggregates HMC-Sim trace streams into the analyses the
// paper's evaluation reports: per-cycle per-vault utilization series
// (Figure 5), latency distributions, and run summaries.
package stats

import (
	"fmt"
	"math/bits"
	"strings"
)

// Histogram is a power-of-two bucketed histogram of uint64 observations
// (bucket i holds values with bit length i), with exact count, sum, min
// and max.
type Histogram struct {
	buckets [65]uint64
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// ObserveN records n identical observations of v, arithmetically
// identical to n Observe(v) calls in O(1). The idle-skip driver uses it
// to fold a run of skipped cycles — over which the sampled quantity was
// provably constant — into the occupancy histograms.
func (h *Histogram) ObserveN(v, n uint64) {
	if n == 0 {
		return
	}
	h.buckets[bits.Len64(v)] += n
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count += n
	h.sum += v * n
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() uint64 { return h.sum }

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() uint64 { return h.min }

// Max returns the largest observation.
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Percentile returns an upper bound for the p-th percentile (p in [0,100])
// at bucket resolution: the upper edge of the bucket containing the p-th
// observation, clamped to the largest observation so no percentile
// exceeds Max.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	rank := uint64(p / 100 * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen > rank {
			if i == 0 {
				return 0
			}
			return min(1<<uint(i)-1, h.max)
		}
	}
	return h.max
}

// Merge adds o's observations into h.
func (h *Histogram) Merge(o *Histogram) {
	if o.count == 0 {
		return
	}
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}

// String renders a compact summary.
func (h *Histogram) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d mean=%.2f min=%d p50<=%d p99<=%d max=%d",
		h.count, h.Mean(), h.min, h.Percentile(50), h.Percentile(99), h.max)
	return sb.String()
}
