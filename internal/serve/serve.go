// Package serve is the distributed MoE inference engine: prefill +
// KV-cache decode through the inference-mode layers, requests
// scheduled with continuous batching on the virtual clock.
//
// Each serving rank runs its own partition of the open-loop request
// stream through the shared dense layers while the MoE FFNs dispatch
// collectively over the expert-parallel communicator (two-phase
// flattened exchange, FP16 wire on inter-supernode legs). The engine
// models the two serving costs that batching amortizes: weight
// streaming (the whole dense stack plus every touched expert crosses
// the memory bus once per step, however many tokens share the step)
// and token compute. One-request-at-a-time serving pays the full
// stream per token; continuous batching pays it once per step — that
// is the throughput gap the R13 benchmark measures.
//
// Everything is deterministic under a fixed seed: Poisson arrivals
// come from the seeded workload generator, admission order is arrival
// order, lockstep rounds advance on exact integer-nanosecond arrival
// times, and sampling RNGs are derived from request ids, not batch
// position.
package serve

import (
	"fmt"
	"math"

	"bagualu/internal/metrics"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/tensor"
)

// Batching selects the scheduling policy.
type Batching int

const (
	// Serial serves one request at a time: the next request is
	// admitted only after the current one completes. The baseline.
	Serial Batching = iota
	// Static admits a batch only when the engine is empty and runs
	// it to completion; no join-at-step.
	Static
	// Continuous admits waiting requests at every decode step
	// (join-at-step), subject to the KV budget and batch cap.
	Continuous
)

// String names the policy.
func (b Batching) String() string {
	switch b {
	case Serial:
		return "serial"
	case Static:
		return "static"
	case Continuous:
		return "continuous"
	default:
		return fmt.Sprintf("Batching(%d)", int(b))
	}
}

// Config tunes the engine.
type Config struct {
	Batching Batching
	// MaxBatch caps resident sequences per rank (0 = unlimited;
	// forced to 1 under Serial).
	MaxBatch int
	// KVBudget caps in-flight KV-cache tokens per rank: a request
	// reserves prompt+MaxNew rows at admission and releases them at
	// completion (0 = unlimited). Requests that could never fit are
	// rejected on arrival.
	KVBudget int
	// QueueCap bounds the admission queue; arrivals past it are
	// rejected — backpressure (0 = unlimited).
	QueueCap int
	// SLOQueueWait rejects a request once it has waited this long
	// for admission (0 = no deadline): past the SLO there is no
	// point starting work the client gave up on.
	SLOQueueWait float64
	// Temperature > 0 samples; 0 decodes greedily. Each request's
	// sampler is seeded from SampleSeed and its id, so results do
	// not depend on batch composition.
	Temperature float32
	SampleSeed  uint64
	// FLOPS prices token compute onto the virtual clock (0 = free).
	// Expert FLOPs already charged by DistMoE.SimRate are not
	// double-counted.
	FLOPS float64
	// MemBWGiBs prices per-step weight streaming (dense stack when
	// the rank has rows, plus every locally-activated expert).
	MemBWGiBs float64
}

// Result aggregates one rank's serving run (or, after MergeAcross,
// the whole world's).
type Result struct {
	Completed     int
	Rejected      int
	PrefillTokens int
	OutputTokens  int
	Steps         int
	PeakKV        int
	Makespan      float64
	TTFT          *metrics.Histogram // arrival -> first token
	TPOT          *metrics.Histogram // mean gap between output tokens
	E2E           *metrics.Histogram // arrival -> completion
}

// Throughput returns completed output tokens per simulated second.
func (r Result) Throughput() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.OutputTokens) / r.Makespan
}

// moeFFN is what the cost model needs from an MoE block.
type moeFFN interface {
	LastInferStats() moe.InferStats
	PerExpertParams() int
	NumLocalExperts() int
}

// seqState tracks one admitted request.
type seqState struct {
	req       Request
	cache     *nn.KVCache
	rng       *tensor.RNG
	next      int   // last sampled token, next decode input
	tokens    []int // every emitted token, for the Completion record
	emitted   int
	prefilled bool
	firstTok  float64
	lastTok   float64
}

// costModel prices one InferStep onto the virtual clock.
type costModel struct {
	denseParams int     // weights streamed when the rank has rows
	perExpert   []int   // per block with an MoE FFN
	attnFactor  float64 // flops per (row, prefix-token): 4*dim*layers
	denseFlops  float64 // flops per row through the dense stack
}

func newCostModel(g *nn.GPT) costModel {
	cm := costModel{}
	total := 0
	for _, p := range g.Params() {
		total += p.W.Len()
	}
	expert := 0
	for _, b := range g.Blocks {
		if m, ok := b.FFN.(moeFFN); ok {
			cm.perExpert = append(cm.perExpert, m.PerExpertParams())
			expert += m.PerExpertParams() * m.NumLocalExperts()
		} else {
			cm.perExpert = append(cm.perExpert, 0)
		}
	}
	cm.denseParams = total - expert
	cm.denseFlops = 2 * float64(cm.denseParams)
	cm.attnFactor = 4 * float64(g.Cfg.Dim) * float64(g.Cfg.Layers)
	return cm
}

// charge prices one step: weight streaming at MemBWGiBs, token
// compute at FLOPS. attnTokens is the summed prefix length over all
// rows of the step.
func (cm costModel) charge(c *mpi.Comm, cfg Config, g *nn.GPT, rows, attnTokens int) {
	var secs float64
	var expertBytes, expertFlops float64
	for bi, b := range g.Blocks {
		m, ok := b.FFN.(moeFFN)
		if !ok {
			continue
		}
		st := m.LastInferStats()
		expertBytes += 4 * float64(st.ActiveExperts) * float64(cm.perExpert[bi])
		if !st.Charged {
			expertFlops += st.Flops
		}
	}
	if cfg.MemBWGiBs > 0 {
		bytes := expertBytes
		if rows > 0 {
			bytes += 4 * float64(cm.denseParams)
		}
		secs += bytes / (cfg.MemBWGiBs * (1 << 30))
	}
	if cfg.FLOPS > 0 {
		f := float64(rows)*cm.denseFlops + float64(attnTokens)*cm.attnFactor + expertFlops
		secs += f / cfg.FLOPS
	}
	if secs > 0 {
		c.Compute(secs, metrics.PhaseCompute)
	}
}

// Run serves this rank's request stream (sorted by arrival) on the
// model over comm. Every rank of the communicator must call Run
// together — each InferStep's expert dispatch is collective, and
// ranks whose streams drain early keep stepping with empty batches
// until the whole world is done.
func Run(model *nn.GPT, c *mpi.Comm, cfg Config, reqs []Request) Result {
	e := NewEngine(model, c, cfg)
	nextArr := 0

	for {
		now := c.Now()
		// Drain arrivals. 1ns slack absorbs float rounding from the
		// idle-advance step below.
		for nextArr < len(reqs) && reqs[nextArr].Arrival <= now+1e-9 {
			e.Offer(reqs[nextArr])
			nextArr++
		}
		// SLO admission deadline: drop what has waited too long.
		e.ShedExpired(now)

		// Lockstep: the world agrees on whether anyone still has
		// work, and whether anyone can run right now.
		remaining := (len(reqs) - nextArr) + e.Pending()
		runnable := e.Pending()
		sums := c.AllReduce([]float32{float32(remaining), float32(runnable)}, mpi.OpSum)
		if sums[0] == 0 {
			break
		}
		if sums[1] == 0 {
			// Everyone is idle waiting for arrivals: jump to the
			// earliest one, exchanged as exact integer nanoseconds.
			ns := int(math.MaxInt64)
			if nextArr < len(reqs) {
				ns = int(math.Ceil(reqs[nextArr].Arrival * 1e9))
			}
			all := c.AllGatherInts([]int{ns})
			min := all[0]
			for _, v := range all[1:] {
				if v < min {
					min = v
				}
			}
			c.AdvanceTo(float64(min) * 1e-9)
			continue
		}

		// Admission. Serial/Static join only an empty engine;
		// Continuous joins at every step.
		if e.ActiveCount() == 0 || cfg.Batching == Continuous {
			e.Admit()
		}
		e.Step()
	}
	return e.Result()
}

// MergeAcross combines per-rank results into the world view every
// rank agrees on: counters summed, peaks and makespan maxed,
// histograms merged bucket-wise.
func (r Result) MergeAcross(c *mpi.Comm) Result {
	sums := c.AllReduce([]float32{
		float32(r.Completed), float32(r.Rejected),
		float32(r.PrefillTokens), float32(r.OutputTokens),
	}, mpi.OpSum)
	maxes := c.AllReduce([]float32{
		float32(r.Steps), float32(r.PeakKV), float32(r.Makespan),
	}, mpi.OpMax)

	out := Result{
		Completed:     int(sums[0]),
		Rejected:      int(sums[1]),
		PrefillTokens: int(sums[2]),
		OutputTokens:  int(sums[3]),
		Steps:         int(maxes[0]),
		PeakKV:        int(maxes[1]),
		Makespan:      float64(maxes[2]),
		TTFT:          metrics.NewLatencyHistogram(),
		TPOT:          metrics.NewLatencyHistogram(),
		E2E:           metrics.NewLatencyHistogram(),
	}
	merge := func(dst, src *metrics.Histogram) {
		snaps := c.AllGather(src.Snapshot())
		n := len(src.Snapshot())
		for rank := 0; rank < c.Size(); rank++ {
			dst.Absorb(snaps[rank*n : (rank+1)*n])
		}
	}
	merge(out.TTFT, r.TTFT)
	merge(out.TPOT, r.TPOT)
	merge(out.E2E, r.E2E)
	return out
}
