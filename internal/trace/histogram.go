package trace

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"repro/internal/sim"
)

// Histogram is a log2-bucketed latency histogram for cycle counts: bucket 0
// holds samples in [0, 2) and bucket i >= 1 holds samples in [2^i, 2^(i+1)).
// Log spacing suits the simulator's distributions, which span from ~20-cycle
// TLB hits to million-cycle L3 forwarded exits; zero-cost samples (absorbed
// fast paths) share the lowest bucket.
type Histogram struct {
	buckets [64]uint64
	count   uint64
	sum     uint64
	min     sim.Cycles
	max     sim.Cycles
}

// Observe records one sample.
func (h *Histogram) Observe(c sim.Cycles) {
	i := bits.Len64(uint64(c))
	if i > 0 {
		i--
	}
	h.buckets[i]++
	h.count++
	h.sum += uint64(c)
	if h.count == 1 || c < h.min {
		h.min = c
	}
	if c > h.max {
		h.max = c
	}
}

// AddRepeats adds k repeats of the samples h observed between two snapshots
// of itself, before and after: k times their bucket counts, count and sum.
// Min and max stay as they are, since h has already observed every sample it
// repeats.
func (h *Histogram) AddRepeats(before, after *Histogram, k uint64) {
	for i := range h.buckets {
		h.buckets[i] += k * (after.buckets[i] - before.buckets[i])
	}
	h.count += k * (after.count - before.count)
	h.sum += k * (after.sum - before.sum)
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the average sample.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Min and Max return the extreme samples.
func (h *Histogram) Min() sim.Cycles { return h.min }

// Max returns the largest sample.
func (h *Histogram) Max() sim.Cycles { return h.max }

// Quantile returns an upper bound for the q-quantile (0 < q <= 1): the top
// of the bucket containing it, clamped into [Min, Max] so the estimate never
// leaves the observed range (an all-zero histogram reports 0, not the bucket
// top). Bucket resolution is a factor of two, which is enough to distinguish
// a posted interrupt from a forwarded exit.
func (h *Histogram) Quantile(q float64) sim.Cycles {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, n := range h.buckets {
		cum += n
		if cum >= target {
			top := sim.Cycles(1) << uint(i+1)
			if top > h.max {
				top = h.max
			}
			if top < h.min {
				top = h.min
			}
			return top
		}
	}
	return h.max
}

// String renders the non-empty buckets with proportional bars.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "(empty histogram)\n"
	}
	var peak uint64
	for _, n := range h.buckets {
		if n > peak {
			peak = n
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "samples=%d mean=%.0f min=%v p50<=%v p99<=%v max=%v\n",
		h.count, h.Mean(), h.min, h.Quantile(0.50), h.Quantile(0.99), h.max)
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		bar := strings.Repeat("#", int(n*40/peak))
		if bar == "" {
			bar = "#"
		}
		lo := uint64(1) << uint(i)
		if i == 0 {
			lo = 0 // bucket 0 spans [0, 2): zero-cost samples land here too
		}
		fmt.Fprintf(&b, "  [%12d, %12d) %8d %s\n", lo, uint64(1)<<uint(i+1), n, bar)
	}
	return b.String()
}
