package perfmodel

// PredictStep is the one model of a training step: the full-machine
// tables (R2-proj, R7, R15) and the autotuner read it.

import (
	"math"

	"bagualu/internal/parallel/layout"
)

// StepPrediction is the analytic projection of one training step: the
// step walk's (walk.go) reading of the representative of stage 0, the
// rank the simulator's measurement reads. PredictStep returns it
// fault-free; Goodput prices it under a FaultModel, adding the
// checkpoint overhead and the goodput — the fraction of wall time that
// produces retained training progress under the failure process.
type StepPrediction struct {
	DenseCompute  float64 // dense fwd+bwd seconds (attention, FFN, gate, head, embeddings)
	ExpertCompute float64 // expert GEMM seconds, replays included
	Recompute     float64 // dense forward replay of recomputed blocks
	A2A           float64 // the rank's time in MoE exchanges, outside its expert GEMMs
	Sync          float64 // the waits for the gradient sync: its groups after the backward, ZeRO's all-gathers
	Offload       float64 // optimizer-state traffic to/from the host tier
	StepTime      float64 // fault-free step time

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

// PredictStep computes the fault-free analytic prediction for one
// training step of spec under this deployment.
func (d Deployment) PredictStep(spec ModelSpec) (StepPrediction, error) {
	var p StepPrediction
	if err := d.ValidateFor(spec); err != nil {
		return p, err
	}
	mb, err := d.Memory(spec)
	if err != nil {
		return p, err
	}
	p.Mem = mb
	r := d.walk(spec).ranks[0]
	p.DenseCompute, p.ExpertCompute, p.Recompute = r.dense, r.expert, r.recompute
	p.A2A, p.A2ABytes = r.a2a, r.a2aBytes
	p.Sync, p.SyncBytes, p.Offload, p.StepTime = r.sync, r.syncBytes, r.offload, r.now

	// Each of a stage's ranks runs M micro-batches of BatchPerRank
	// sequences.
	perStage, _ := d.Group(layout.AxisStage)
	p.TokensPerStep = float64(d.BatchPerRank*spec.SeqLen) * float64(d.Micro()) * float64(perStage)
	p.TokensPerSec = p.TokensPerStep / p.StepTime
	p.SustainedFlops = p.TokensPerStep * spec.FlopsPerToken() / p.StepTime
	p.PeakFraction = p.SustainedFlops / (d.Machine.NodeFlops(d.Precision) * float64(d.Machine.Nodes()))

	p.Goodput, p.EffStepTime = 1, p.StepTime
	return p, nil
}

// BestCkptInterval prices this deployment's step p under the async
// writer at every checkpoint interval 1, 2, 4 … 2¹⁶ and returns the
// one with the highest goodput (the shortest on a tie) and p priced
// there. It walks nothing: goodput reads only p's step time and memory.
func (d Deployment) BestCkptInterval(p StepPrediction, mtbfSteps float64) (int, StepPrediction) {
	every, best := 0, p
	for iv := 1; iv <= 1<<16; iv *= 2 {
		q := d.Goodput(p, FaultModel{MTBFSteps: mtbfSteps, CkptEverySteps: iv, Async: true})
		if every == 0 || q.Goodput > best.Goodput {
			every, best = iv, q
		}
	}
	return every, best
}

// Goodput prices this deployment's step p (PredictStep's) under the
// fault model, from the step time and memory the walk computed: a
// checkpoint cycle of I steps pays the writer overhead once, and each
// expected failure (exponential arrivals at 1/MTBF per step) loses half
// an interval of work plus the restore read. It sets the goodput, the
// amortized per-step checkpoint cost and the effective step time.
func (d Deployment) Goodput(p StepPrediction, fm FaultModel) StepPrediction {
	p.Goodput, p.CkptOverhead = d.goodput(p.StepTime, p.Mem, fm)
	p.EffStepTime = p.StepTime / p.Goodput
	return p
}

func (d Deployment) goodput(stepTime float64, mb MemBreakdown, fm FaultModel) (float64, float64) {
	if fm.CkptEverySteps <= 0 {
		if fm.MTBFSteps <= 0 {
			return 1, 0
		}
		// No checkpoints: a failure loses the run so far, half an MTBF
		// on average.
		lost := 0.5 * fm.MTBFSteps * stepTime
		return stepTime * fm.MTBFSteps / (stepTime*fm.MTBFSteps + lost), 0
	}
	// Per-rank state on disk: weights and optimizer state.
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
