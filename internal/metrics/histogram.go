package metrics

import (
	"fmt"
	"math"
)

// Histogram is a fixed-layout log-bucket latency histogram. Bucket
// edges are lo*growth^i, so the layout is fully determined by (lo,
// growth, buckets) and two histograms with the same layout merge by
// adding counts — including across ranks, where the counts travel
// through a float32 all-reduce. Quantile queries return a bucket's
// upper edge, which makes them deterministic and merge-order
// independent at the cost of bounded relative error (the growth
// factor).
type Histogram struct {
	lo     float64
	growth float64
	logG   float64
	counts []int64
	under  int64 // values below lo
	n      int64
	sum    float64 // sum and min travel in Snapshot
	min    float64
	max    float64
}

// NewHistogram builds a histogram with the given lowest bucket edge,
// per-bucket growth factor, and bucket count. The last bucket absorbs
// everything above the top edge.
func NewHistogram(lo, growth float64, buckets int) *Histogram {
	if lo <= 0 || growth <= 1 || buckets < 1 {
		panic(fmt.Sprintf("metrics: bad histogram layout lo=%v growth=%v buckets=%d", lo, growth, buckets))
	}
	return &Histogram{
		lo: lo, growth: growth, logG: math.Log(growth),
		counts: make([]int64, buckets),
		min:    math.Inf(1), max: math.Inf(-1),
	}
}

// NewLatencyHistogram covers 1 microsecond to ~2.8 hours of simulated
// seconds at 10% resolution — the default layout for TTFT/TPOT/e2e.
func NewLatencyHistogram() *Histogram { return NewHistogram(1e-6, 1.1, 240) }

// Add records one observation.
func (h *Histogram) Add(v float64) {
	h.n++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if v < h.lo {
		h.under++
		return
	}
	b := int(math.Log(v/h.lo) / h.logG)
	if b >= len(h.counts) {
		b = len(h.counts) - 1
	}
	h.counts[b]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1): the
// upper edge of the bucket holding the ceil(q*n)-th observation. The
// answer depends only on the merged counts, never on insertion order.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	seen := h.under
	if seen >= rank {
		return h.lo
	}
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			return h.lo * math.Pow(h.growth, float64(b+1))
		}
	}
	return h.lo * math.Pow(h.growth, float64(len(h.counts)))
}

// Snapshot flattens the histogram into a float32 vector —
// [under, counts..., n, sum, min] — for shipping across ranks (the
// serving engine all-gathers per-rank snapshots and Absorbs each).
// float32 counts are exact below 2^24 observations per bucket.
func (h *Histogram) Snapshot() []float32 {
	out := make([]float32, len(h.counts)+4)
	out[0] = float32(h.under)
	for b, c := range h.counts {
		out[b+1] = float32(c)
	}
	out[len(h.counts)+1] = float32(h.n)
	out[len(h.counts)+2] = float32(h.sum)
	mn := h.min
	if h.n == 0 {
		mn = 0
	}
	out[len(h.counts)+3] = float32(mn)
	return out
}

// Absorb merges a Snapshot produced by a histogram with the same
// layout. The snapshot's min is only a lower witness; max is
// reconstructed approximately from the top non-empty bucket.
func (h *Histogram) Absorb(snap []float32) {
	if len(snap) != len(h.counts)+4 {
		panic(fmt.Sprintf("metrics: snapshot length %d for %d-bucket histogram", len(snap), len(h.counts)))
	}
	h.under += int64(snap[0])
	top := -1
	for b := range h.counts {
		c := int64(snap[b+1])
		h.counts[b] += c
		if c > 0 {
			top = b
		}
	}
	n := int64(snap[len(h.counts)+1])
	h.n += n
	h.sum += float64(snap[len(h.counts)+2])
	if n > 0 {
		mn := float64(snap[len(h.counts)+3])
		if mn < h.min {
			h.min = mn
		}
		mx := h.lo
		if top >= 0 {
			mx = h.lo * math.Pow(h.growth, float64(top+1))
		}
		if mx > h.max {
			h.max = mx
		}
	}
}
