package perfmodel

import (
	"fmt"

	"bagualu/internal/parallel/layout"
	"bagualu/internal/sunway"
)

// A2AStrategy selects the MoE exchange the step walk runs.
type A2AStrategy int

const (
	// A2AFlat is the direct exchange: every rank sends every peer its
	// chunk (moe.Direct).
	A2AFlat A2AStrategy = iota
	// A2AHierarchical forwards cross-supernode chunks by rail, through
	// the member of the source supernode on the destination's position,
	// when the expert group spans supernodes (mpi.Exchange).
	A2AHierarchical
)

// String names the strategy.
func (a A2AStrategy) String() string {
	if a == A2AHierarchical {
		return "hierarchical"
	}
	return "flat"
}

// Deployment maps a model onto a machine.
type Deployment struct {
	Machine      *sunway.Machine
	RanksPerNode int // MPI ranks per node (1 per core group = 6 on SW26010-Pro)

	// Grid folds the ranks into [pp, dp, ep] and must cover them
	// exactly; its fold table places every group the walk runs. Each of
	// the PP stages holds V chunks of Layers/(PP·V) contiguous blocks.
	layout.Grid

	// MicroBatches is the micro-batch count M; 0 is the token-fair
	// default M = PP, which keeps the global batch the flat grid's.
	MicroBatches int

	BatchPerRank int // sequences per rank per micro-batch
	Precision    sunway.Precision

	// Efficiency is the fraction of per-node peak the GEMM kernels
	// sustain (~0.3–0.5 on SW26010-Pro for this workload class).
	Efficiency float64

	A2A A2AStrategy

	// ZeRO shards the optimizer state of the dense parameters over the
	// stage and of the expert shards over their replicas, as
	// train.ShardedAdam does: each gradient group reduce-scatters, and
	// the updated shards are all-gathered.
	ZeRO bool

	// RecomputeEvery selects activation recomputation as the engine
	// runs it (parallel.ModelConfig.RecomputeEvery): when positive, block
	// b replays its forward in the backward when b % RecomputeEvery == 0,
	// keeping only its input (1·d a token instead of ~6·d); 0 is off.
	RecomputeEvery int

	// OffloadOptState parks the (post-ZeRO) optimizer state in the host
	// tier: it leaves NodeMemGiB and streams out and back every step at
	// HostMemBWGiBs.
	OffloadOptState bool

	// WireFP16 is the MoE exchange's FP16 codec (mpi.FP16Wire): a row
	// bound for another supernode travels at 2 bytes on every leg.
	WireFP16 bool

	// RouteSkew is the routing's load imbalance: the rows the busiest
	// rank of an expert group receives in an exchange over the group's
	// mean (autotune.ShortRunResult.RouteSkew measures it). Every rank
	// waits for that rank's expert GEMMs and for the rows it sends back,
	// so the walk prices both at RouteSkew× the mean. 0 or 1 is
	// balanced routing.
	RouteSkew float64

	// OverlapA2A is the two-phase exchange (moe.CommConfig.Overlap):
	// expert GEMMs on the local leg's rows run while the cross-supernode
	// leg is in flight.
	OverlapA2A bool
}

// String labels the deployment by its grid, batch, wire codec and
// memory levers, the knobs the autotuner searches.
func (d Deployment) String() string {
	codec := "fp32"
	if d.WireFP16 {
		codec = "fp16"
	}
	s := fmt.Sprintf("%s b%d %s", d.Grid, d.BatchPerRank, codec)
	if d.ZeRO {
		s += " zero"
	}
	if d.RecomputeEvery > 0 {
		s += fmt.Sprintf(" rc%d", d.RecomputeEvery)
	}
	if d.OffloadOptState {
		s += " offload"
	}
	return s
}

// Ranks returns the total rank count.
func (d Deployment) Ranks() int { return d.Machine.Nodes() * d.RanksPerNode }

// Micro returns the micro-batch count M: the configured value, or PP.
func (d Deployment) Micro() int {
	if d.MicroBatches >= 1 {
		return d.MicroBatches
	}
	return d.PP()
}

// replays reports whether block b replays its forward in the backward.
func (d Deployment) replays(b int) bool { return d.RecomputeEvery > 0 && b%d.RecomputeEvery == 0 }

// bytesPerElem is the size of a stored weight or activation element in
// the given precision (half precision in FP16/Mixed).
func bytesPerElem(p sunway.Precision) float64 {
	switch p {
	case sunway.FP64:
		return 8
	case sunway.FP16, sunway.Mixed:
		return 2
	default:
		return 4
	}
}

// gradWire is the width in bytes of a gradient-sync element on a hop
// carrying one rank's own contribution, a partial sum or a finished
// value, indexed by coll.Wire. Under FP16 and Mixed the engine sends raw
// and finished values at 2 B and partial sums at 4 B (mpi.GradWire).
func (d Deployment) gradWire() [3]float64 {
	if d.Precision == sunway.FP16 || d.Precision == sunway.Mixed {
		return [3]float64{2, 4, 2}
	}
	w := bytesPerElem(d.Precision)
	return [3]float64{w, w, w}
}
