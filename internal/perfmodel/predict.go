package perfmodel

// PredictStep is the unified analytic cost model of one synchronous
// training step. It is the single place the component formulas live:
// the full-machine experiment tables (R2-proj, R7, R15) and the
// deployment autotuner (internal/autotune) both read it, so the scores
// the autotuner ranks by and the projections the tables print cannot
// drift apart.

import (
	"math"
	"slices"

	"bagualu/internal/parallel/layout"
	"bagualu/internal/simnet"
)

// StepPrediction is the analytic projection of one training step.
// Component times are "full" (pre-overlap) costs; StepTime composes
// them along the visible critical path under the deployment's overlap
// knobs. With a non-zero FaultModel the prediction also carries the
// checkpoint overhead and the goodput — the fraction of wall time that
// produces retained training progress under the failure process.
type StepPrediction struct {
	DenseCompute  float64 // dense fwd+bwd seconds (attention, FFN, gate, head)
	ExpertCompute float64 // expert fwd+bwd seconds (overlappable with the a2a)
	Recompute     float64 // forward replay of recomputed blocks
	A2A           float64 // all 4·MoELayers all-to-alls, unhidden
	Sync          float64 // gradient sync, unhidden
	Offload       float64 // optimizer-state traffic to/from the host tier

	MoEPhase    float64 // visible dispatch+expert+combine time (OverlapA2A applied)
	VisibleSync float64 // the share of Sync the rest of the backward cannot hide (bucketed overlap)
	Bubble      float64 // pipeline fill/drain idle: (S-1)/(M·V) of the busy span
	PPSend      float64 // the busiest stage's boundary sends: injection only, M·V per neighbour
	PPLatency   float64 // boundary wire latency the fill and drain cross: 2·Σα over V·S-1 chunk boundaries
	StepTime    float64 // fault-free visible step time

	SyncBytes float64 // per-rank gradient-sync wire bytes
	A2ABytes  float64 // per-rank MoE exchange wire bytes, post-codec

	TokensPerStep  float64
	TokensPerSec   float64 // fault-free
	SustainedFlops float64 // fault-free
	PeakFraction   float64

	CkptOverhead float64 // amortized per-step checkpoint cost, seconds
	Goodput      float64 // useful fraction under the fault model; 1 when fault-free
	EffStepTime  float64 // StepTime incl. checkpoints and expected rework: StepTime/Goodput

	Mem MemBreakdown
}

// FaultModel parameterizes the failure process and checkpoint policy
// the goodput projection prices. The zero value is fault-free (and
// checkpoint-free): Goodput = 1.
type FaultModel struct {
	// MTBFSteps is the expected number of steps between failures
	// across the whole machine; 0 disables the failure process.
	MTBFSteps float64
	// CkptEverySteps is the checkpoint interval in steps; 0 = never.
	CkptEverySteps int
	// Async models the background writer: the step pays only the
	// memcpy snapshot unless the previous flush is still in flight.
	// Sync charges the full disk write to the step.
	Async bool
}

// PredictStep computes the analytic prediction for one training step
// of spec under this deployment and fault model.
func (d Deployment) PredictStep(spec ModelSpec, fm FaultModel) (StepPrediction, error) {
	var p StepPrediction
	if err := d.ValidateFor(spec); err != nil {
		return p, err
	}
	topo := simnet.New(d.Machine, d.RanksPerNode)
	// Pipeline shape: S contiguous stages of perStage ranks,
	// V chunks per stage, M micro-batches in flight. BatchPerRank is
	// the per-micro-batch size; the token-fair default M = S keeps the
	// global fresh-token count equal to the flat grid's (the pipeline
	// columns all process the same tokens).
	S, V, M := d.PP(), d.VPP(), d.Micro()
	perStage, stageStride := d.Group(layout.AxisStage)
	epSize, epStride := d.Group(layout.AxisExpert)
	dpSize, dpStride := d.Group(layout.AxisData)
	_, ppStride := d.Group(layout.AxisPipe)
	tokensPerRank := float64(d.BatchPerRank * spec.SeqLen)
	// flow = M/S: each rank runs its 1/S layer share over M
	// micro-batches; at the token-fair M = S this is exactly the flat
	// per-rank workload.
	flow := float64(M) / float64(S)
	p.TokensPerStep = tokensPerRank * float64(M) * float64(perStage)

	// Compute: forward+backward FLOPs per rank against node peak,
	// split into the dense share and the expert share (the part the
	// two-phase exchange can hide inside the a2a window).
	nodeFlops := d.Machine.NodeFlops(d.Precision) * d.Efficiency
	rankFlops := nodeFlops / float64(d.RanksPerNode)
	totalCompute := tokensPerRank * flow * spec.FlopsPerToken() / rankFlops
	if spec.MoEEvery > 0 {
		expertFlopsPerToken := 6 * float64(spec.MoELayers()) * float64(spec.TopK) * float64(spec.expertParams())
		p.ExpertCompute = tokensPerRank * flow * expertFlopsPerToken / rankFlops
	}
	p.DenseCompute = totalCompute - p.ExpertCompute

	// Communication: 4 all-to-alls per MoE layer per step (dispatch
	// and combine, forward and backward), each moving
	// tokensPerRank·TopK·Dim elements per rank. The FP16 wire codec
	// shrinks only the elements that cross supernodes.
	if spec.MoEEvery > 0 && epSize > 1 {
		elems := tokensPerRank * float64(spec.TopK) * float64(spec.Dim)
		intraBytes := elems * bytesPerElem(d.Precision)
		machineBytes := elems * d.wireBytesPerElem()
		one, oneBytes := d.a2aCost(topo, epSize, epStride, intraBytes, machineBytes)
		// Each rank's chunk carries MoELayers/S expert layers and runs
		// them M times (once per micro-batch): flow = M/S exchanges per
		// layer relative to the flat grid.
		p.A2A = float64(4*spec.MoELayers()) * flow * one
		p.A2ABytes = float64(4*spec.MoELayers()) * flow * oneBytes
		// Recomputed blocks replay their forward pass during backward,
		// dispatch/combine exchanges included: the forward half of the
		// a2a bill (2 of the 4 exchanges) repeats for that fraction.
		p.A2A *= 1 + d.RecomputeFraction/2
		p.A2ABytes *= 1 + d.RecomputeFraction/2
	}

	// Gradient sync: dense params all-reduced over the world (ring:
	// 2·(P-1)/P of the buffer at the worst link), expert params over the
	// data-parallel group, each hop at the width the engine sends it
	// (syncWire: half-precision gradients under FP16 and Mixed, except
	// on hops that carry partial sums). ZeRO's reduce-scatter +
	// all-gather runs the ring all-reduce's hops (pinned by
	// TestZeROSyncBytesNoWorse); its all-gather carries float32
	// parameters, which syncWire prices.
	// Under a pipeline each stage syncs only its own 1/S of the dense
	// parameters, over its perStage sub-grid — the term that shrinks
	// with depth and makes PP win on deep stacks.
	// syncOf prices the dense and expert all-reduces of dense and
	// expert elements, issued together as the engine issues a bucket's.
	syncOf := func(dense, expert float64) (float64, float64) {
		dc := d.allReduceCost(topo, perStage, stageStride, dense)
		if dpSize <= 1 || spec.MoEEvery <= 0 {
			return dc.total, dc.bytes
		}
		// An expert shard's replicas form the data-parallel group, so
		// their ring runs over the tier its stride reaches.
		ec := d.allReduceCost(topo, dpSize, dpStride, expert)
		return concurrentSync(dc, ec), dc.bytes + ec.bytes
	}
	p.Sync, p.SyncBytes = syncOf(float64(spec.DenseParams())/float64(S),
		float64(spec.ExpertParamsTotal()/int64(epSize)/int64(S)))
	// The last group to leave is block 0's dense part with the
	// embeddings: an MoE block's experts leave from inside its backward,
	// before its return leg and attention backward.
	lastSync, _ := syncOf(float64(spec.embedParams()+spec.blockDenseParams(0)), 0)
	if d.ZeRO {
		// The sharded optimizer turns each fused all-reduce into a
		// reduce-scatter + all-gather pair (train.ShardedAdam): the
		// bytes are pinned equal, but every sharded group pays one
		// extra collective's worth of phase startups.
		p.Sync += d.allReduceLatency(topo, perStage, stageStride)
		if dpSize > 1 && spec.MoEEvery > 0 {
			p.Sync += d.allReduceLatency(topo, dpSize, dpStride)
		}
	}

	// Selective recomputation replays the forward pass of the
	// recomputed blocks during backward: that fraction of the forward
	// share (one third of fwd+bwd) is extra compute.
	p.Recompute = d.RecomputeFraction * totalCompute / 3

	// Memory: the full per-node breakdown (ZeRO sharding, recompute
	// policy, host offload).
	mb, err := d.Memory(spec)
	if err != nil {
		return p, err
	}
	p.Mem = mb

	// Offloaded optimizer state streams host→device and back once per
	// step over the node's host-memory bandwidth, shared by its ranks.
	if d.OffloadOptState && mb.HostOptState > 0 && d.Machine.HostMemBWGiBs > 0 {
		p.Offload = 2 * mb.HostOptState / d.Machine.HostMemBWGiBs
	}

	// Visible critical path. The two-phase exchange runs expert
	// compute while the cross-supernode leg is in flight, so the MoE
	// phase collapses to the longer of the two; blocking pays both. An
	// expert group inside one supernode has no such leg: every row
	// arrives on the local one, and overlap hides nothing.
	if d.OverlapA2A && epSize > (topo.RanksPerSupernode()+epStride-1)/epStride {
		p.MoEPhase = math.Max(p.A2A, p.ExpertCompute)
	} else {
		p.MoEPhase = p.A2A + p.ExpertCompute
	}
	// Gradient buckets leave as the backward finishes them, the head's
	// first. A bucket is final only on the step's last micro-batch, so
	// what hides the sync is that micro-batch's backward — two thirds of
	// its compute, its replays included — after the head's. The exposed
	// sync is the part that does not fit under it, and never less than
	// the last group's own sync, which starts as the backward ends.
	headBwd := 4 * tokensPerRank * float64(spec.headParams()) / rankFlops
	window := max(0, (2.0/3.0*totalCompute+p.Recompute)/float64(M)-headBwd)
	p.VisibleSync = min(p.Sync, max(p.Sync-window, lastSync))

	if S > 1 {
		// Fill/drain bubble of the (interleaved) 1F1B schedule: the
		// classic (S-1)/(M·V) fraction of the per-rank busy span —
		// compute, MoE phase and replay all idle during ramp-up and
		// drain; sync happens after the last micro-batch and is not
		// part of the bubbled span.
		p.Bubble = float64(S-1) / (float64(M) * float64(V)) *
			(p.DenseCompute + p.MoEPhase + p.Recompute)
		// Stage-boundary traffic: each of the V·S-1 chunk boundaries
		// carries every micro-batch's [rows × Dim] activation block
		// forward and its gradient back, at the tier its two stages
		// reach. A send occupies its sender only while it injects
		// (mpi's post), and the step waits for the busiest stage. The
		// wire latency shows where nothing overlaps it: the first
		// micro-batch's forward and the last one's backward cross every
		// boundary in turn.
		rows := float64(d.BatchPerRank * spec.SeqLen)
		sendBytes := float64(int(rows * float64(spec.Dim) * bytesPerElem(d.Precision)))
		busy := make([]float64, S)
		for c := 0; c+1 < V*S; c++ {
			a, b := c%S, (c+1)%S
			lvl := topo.LevelOf(a*ppStride, b*ppStride)
			inject := float64(M) * sendBytes * topo.Beta[lvl]
			if lvl == simnet.MachineLevel {
				inject *= d.Machine.BisectionOversub
			}
			busy[a] += inject
			busy[b] += inject
			p.PPLatency += 2 * topo.Alpha[lvl]
		}
		p.PPSend = slices.Max(busy)
	}

	p.StepTime = p.DenseCompute + p.MoEPhase + p.Recompute + p.VisibleSync + p.Offload + p.Bubble + p.PPSend + p.PPLatency
	p.TokensPerSec = p.TokensPerStep / p.StepTime
	p.SustainedFlops = p.TokensPerStep * spec.FlopsPerToken() / p.StepTime
	p.PeakFraction = p.SustainedFlops / (d.Machine.NodeFlops(d.Precision) * float64(d.Machine.Nodes()))

	p.Goodput, p.CkptOverhead = d.goodput(p.StepTime, mb, fm)
	p.EffStepTime = p.StepTime / p.Goodput
	return p, nil
}

// wireBytesPerElem is the inter-supernode wire size of one activation
// element: the codec's 2 bytes under WireFP16, otherwise the training
// wire width.
func (d Deployment) wireBytesPerElem() float64 {
	if d.WireFP16 {
		return 2
	}
	return bytesPerElem(d.Precision)
}

// goodput projects the useful-work fraction under the fault model:
// a checkpoint cycle of I steps pays the writer overhead once, and
// each expected failure (exponential arrivals at 1/MTBF per step)
// loses half an interval of work plus the restore read. The returned
// overhead is the amortized per-step checkpoint cost.
func (d Deployment) goodput(stepTime float64, mb MemBreakdown, fm FaultModel) (float64, float64) {
	if fm.CkptEverySteps <= 0 {
		if fm.MTBFSteps <= 0 {
			return 1, 0
		}
		// Failures with no checkpoints: every failure loses the whole
		// run so far; model the run as one MTBF long — goodput
		// collapses toward zero as MTBF shrinks. Approximate with a
		// half-MTBF expected loss per failure.
		lost := 0.5 * fm.MTBFSteps * stepTime
		return stepTime * fm.MTBFSteps / (stepTime*fm.MTBFSteps + lost), 0
	}
	// Per-rank state on disk: weights + optimizer state (device or
	// host tier), at the node granularity the memory model accounts.
	const gib = float64(1 << 30)
	stateBytesPerRank := (mb.Params + mb.OptState + mb.HostOptState) * gib / float64(d.RanksPerNode)
	diskBW := d.Machine.DiskBWGiBs * gib
	if diskBW <= 0 {
		diskBW = gib // writer default: 1 GiB/s
	}
	flush := stateBytesPerRank / diskBW
	snapshot := stateBytesPerRank / (d.Machine.CGMemBWGiBs * gib)

	interval := float64(fm.CkptEverySteps)
	cycleWork := interval * stepTime
	var cycleOverhead float64
	if fm.Async {
		// The flush hides behind the next interval's compute; only the
		// excess stalls. The snapshot memcpy is always paid.
		cycleOverhead = snapshot + math.Max(0, flush-cycleWork)
	} else {
		cycleOverhead = snapshot + flush
	}
	ckptPerStep := cycleOverhead / interval
	if fm.MTBFSteps <= 0 {
		return cycleWork / (cycleWork + cycleOverhead), ckptPerStep
	}
	// Expected failures per cycle, each losing half an interval of
	// (re)work plus the restore read of the checkpoint.
	failuresPerCycle := interval / fm.MTBFSteps
	restore := flush // read the shards back at disk bandwidth
	expectedLoss := failuresPerCycle * (0.5*cycleWork + restore)
	return cycleWork / (cycleWork + cycleOverhead + expectedLoss), ckptPerStep
}
