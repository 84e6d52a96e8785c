package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"bagualu/internal/metrics"
)

// quantile is the linearly interpolated q-quantile of xs (which it
// sorts); 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

func sumOf(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// fastest is the smallest sample. Host throughput is reported from it,
// not from the median: on a shared VM the host clock's noise is
// one-sided (a neighbour stealing the CPU only ever slows a step), it
// comes in phases that outlast a run, and across 20 runs the fastest
// step repeated within 10% where the median step moved by 20%
// (README "Noise").
func fastest(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0) }

// latencyHistGrowth and latencyHistLo mirror metrics.NewLatencyHistogram's
// layout; histQuantile and histShareBelow need the bucket edges, which
// the histogram does not export.
const (
	latencyHistLo     = 1e-6
	latencyHistGrowth = 1.1
)

// histBuckets splits a latency histogram snapshot into its bucket
// counts (index 0 is the underflow bucket below latencyHistLo).
func histBuckets(h *metrics.Histogram) (counts []float64, n float64) {
	snap := h.Snapshot() // [under, counts..., n, sum, min]
	counts = make([]float64, len(snap)-3)
	for i := range counts {
		counts[i] = float64(snap[i])
		n += counts[i]
	}
	return counts, n
}

// bucketEdges returns bucket i's lower and upper edge (i = 0 is the
// underflow bucket).
func bucketEdges(i int) (lo, hi float64) {
	if i == 0 {
		return 0, latencyHistLo
	}
	lo = latencyHistLo * math.Pow(latencyHistGrowth, float64(i-1))
	return lo, lo * latencyHistGrowth
}

// histQuantile interpolates the q-quantile inside the bucket that holds
// it. metrics.Histogram.Quantile returns the bucket's upper edge, which
// moves in 10% steps; two seeds that land either side of an edge would
// then differ by 10% for a sub-percent change.
func histQuantile(h *metrics.Histogram, q float64) float64 {
	counts, n := histBuckets(h)
	if n == 0 {
		return 0
	}
	rank := q * n
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lo, hi := bucketEdges(i)
			return lo + (hi-lo)*(rank-cum)/c
		}
		cum += c
	}
	return h.Max()
}

// histShareBelow is the share of sent requests whose observation is at
// most limit; requests that never produced an observation (failed ones)
// count as misses because sent, not the histogram count, is the base.
func histShareBelow(h *metrics.Histogram, limit float64, sent int) float64 {
	if sent == 0 {
		return 0
	}
	counts, _ := histBuckets(h)
	var below float64
	for i, c := range counts {
		lo, hi := bucketEdges(i)
		switch {
		case hi <= limit:
			below += c
		case lo < limit:
			below += c * (limit - lo) / (hi - lo)
		}
	}
	return below / float64(sent)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// digest folds the bits that identify a run's simulated outcome, so
// two commits (or two runs of one) compare exactly.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{fnv.New64a()} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	d.h.Write(b[:])
}
func (d *digest) f32(v float32)  { d.u64(uint64(math.Float32bits(v))) }
func (d *digest) f64(v float64)  { d.u64(math.Float64bits(v)) }
func (d *digest) String() string { return fmt.Sprintf("%016x", d.h.Sum64()) }
