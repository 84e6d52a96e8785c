package train

import (
	"fmt"

	"bagualu/internal/data"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
)

// AuxLossLayer is implemented by MoE layers that contribute an
// auxiliary load-balancing loss.
type AuxLossLayer interface {
	AuxLoss() float32
	LastRouting() *moe.Routing
}

// CommReporter is implemented by layers that account their wire
// traffic and exchange-phase time (the distributed MoE layer). Both
// methods return cumulative counters; the trainer snapshots them
// around each step and reports the deltas in Metrics.
type CommReporter interface {
	WireStats() mpi.WireStats
	PhaseTiming() moe.Timing
	Comm() *mpi.Comm
}

// Config drives a single-rank training run.
type Config struct {
	Batch     int
	Precision sunway.Precision
	Schedule  Schedule
	ClipNorm  float32 // 0 disables clipping

	// Accum is the number of micro-batches whose gradients are
	// accumulated before one optimizer step (gradient accumulation,
	// how the paper reaches machine-scale global batches without
	// machine-scale activation memory). 0 or 1 disables.
	Accum int
}

// Metrics summarizes one training step.
type Metrics struct {
	Step     int
	Loss     float32 // cross-entropy (excludes aux)
	AuxLoss  float32 // summed MoE balance loss
	GradNorm float32 // pre-clip global norm; the PostBackward hook's when one is installed
	LR       float32
	Skipped  bool // step dropped by loss-scale overflow
	Overflow int  // MoE capacity overflow count (CapacityDrop mode only; 0 when dropless)
	Scale    float32

	// Wire traffic and exchange-phase time of this step's MoE
	// dispatch/combine exchanges (zero when the model has no
	// CommReporter layers or runs on a single rank). Wire is the
	// per-step delta of the layers' cumulative counters; Comm is the
	// matching phase breakdown.
	Wire mpi.WireStats
	Comm moe.Timing
}

// Trainer runs synchronous next-token pretraining of a GPT model on a
// synthetic corpus, with the configured precision policy. It is the
// single-rank engine the parallel package replicates.
type Trainer struct {
	Model  *nn.GPT
	Corpus *data.Corpus
	Opt    Optimizer
	Cfg    Config

	MP     *MixedPrecision
	params []*nn.Param
	loss   nn.SoftmaxCrossEntropy
	step   int

	// PostBackward, when non-nil, runs after gradients are computed
	// and before the optimizer step; the parallel engine injects the
	// gradient all-reduce here. It owns clipping (Config.ClipNorm then
	// does nothing) and returns the global gradient norm, identical on
	// every rank, which decides whether a step is skipped: one rank's
	// overflow reaches every rank through the sync, so all skip
	// together.
	PostBackward func(params []*nn.Param) float32
}

// NewTrainer wires a model, corpus, and optimizer together.
func NewTrainer(model *nn.GPT, corpus *data.Corpus, opt Optimizer, cfg Config) (*Trainer, error) {
	if cfg.Batch <= 0 {
		return nil, fmt.Errorf("train: batch %d", cfg.Batch)
	}
	if corpus.Config().SeqLen != model.Cfg.SeqLen {
		return nil, fmt.Errorf("train: corpus seq len %d != model %d", corpus.Config().SeqLen, model.Cfg.SeqLen)
	}
	if corpus.Config().Vocab != model.Cfg.Vocab {
		return nil, fmt.Errorf("train: corpus vocab %d != model %d", corpus.Config().Vocab, model.Cfg.Vocab)
	}
	if cfg.Schedule == nil {
		cfg.Schedule = ConstantLR(1e-3)
	}
	t := &Trainer{Model: model, Corpus: corpus, Opt: opt, Cfg: cfg}
	t.params = model.Params()
	t.MP = NewMixedPrecision(cfg.Precision, t.params)
	return t, nil
}

// Params returns the trainable parameters.
func (t *Trainer) Params() []*nn.Param { return t.params }

// ReformParams adopts ps as the trainable set — the parallel engine
// passes the parameters a rank owns (the stage's chunks of a pipelined
// model, the whole model at depth 1) whenever it re-partitions them. The
// optimizer, gradient zeroing, precision policy, and checkpoints then
// operate on ps while the model itself stays whole on every rank. The
// precision policy keeps its loss-scale state and, by identity, the FP32
// master of every parameter it already covered, so a re-partition moves
// no trained bit; a checkpoint restore overwrites them like any other
// tensor. The slice is adopted, not copied.
func (t *Trainer) ReformParams(ps []*nn.Param) {
	t.params = ps
	t.MP.cover(ps)
}

// StepCount returns the number of Step calls so far.
func (t *Trainer) StepCount() int { return t.step }

// Step draws Accum micro-batches, accumulates their gradients, and
// applies one optimizer update.
func (t *Trainer) Step() Metrics {
	return t.StepWith(func() (loss, aux float32, overflow int) {
		accum := max(t.Cfg.Accum, 1)
		for micro := 0; micro < accum; micro++ {
			ids, targets := t.Corpus.Batch(t.Cfg.Batch)
			l, a, o := t.microStep(ids, targets, 1/float32(accum))
			loss += l / float32(accum)
			aux += a / float32(accum)
			overflow += o
		}
		return loss, aux, overflow
	})
}

// StepWith runs one optimizer step whose forward/backward phase is
// driven by the caller: run computes gradients into the trainable
// parameter set (Step's accumulation loop, or the parallel engine's
// schedule runner) and returns the micro-averaged loss, auxiliary loss,
// and overflow count. Everything around it — gradient zeroing, the
// precision policy, the PostBackward sync hook, clipping, and the
// optimizer — is one update rule for every caller.
func (t *Trainer) StepWith(run func() (loss, aux float32, overflow int)) Metrics {
	nn.ZeroGrads(t.params)
	m := Metrics{Step: t.step}
	wire0, comm0 := t.commSnapshot()
	m.Loss, m.AuxLoss, m.Overflow = run()
	m = t.finishStep(m)
	t.fillComm(&m, wire0, comm0)
	return m
}

// StepOn runs one cycle on caller-provided tokens. Gradient
// accumulation is not applied here; use Step for that.
func (t *Trainer) StepOn(ids, targets []int) Metrics {
	return t.StepWith(func() (float32, float32, int) { return t.microStep(ids, targets, 1) })
}

// gradScaler is implemented by MoE layers whose internally injected
// gradients (the aux loss) must track the loss scale and micro-batch
// weight.
type gradScaler interface{ SetGradScale(float32) }

// microStep accumulates one micro-batch's gradients (scaled by
// weight) without touching the optimizer.
func (t *Trainer) microStep(ids, targets []int, weight float32) (loss, aux float32, overflow int) {
	scale := t.MP.LossScale() * weight
	for _, b := range t.Model.Blocks {
		if g, ok := b.FFN.(gradScaler); ok {
			g.SetGradScale(scale)
		}
	}
	logits := t.Model.Forward(ids)
	loss = t.loss.Forward(logits, targets)
	aux, overflow = t.collectAux()

	dlogits := t.loss.Backward()
	if s := t.MP.LossScale() * weight; s != 1 {
		tensor.ScaleInPlace(dlogits, s)
	}
	t.Model.Backward(dlogits)
	// Note: the MoE aux-loss gradient is injected inside the gate
	// backward (already part of Model.Backward).
	return loss, aux, overflow
}

// finishStep runs the precision policy, gradient sync hook, clipping,
// and the optimizer.
func (t *Trainer) finishStep(m Metrics) Metrics {
	t.MP.PrepareGrads()
	switch {
	case t.PostBackward != nil:
		m.GradNorm = t.PostBackward(t.params)
	case t.Cfg.ClipNorm > 0:
		m.GradNorm = ClipGradNorm(t.params, t.Cfg.ClipNorm)
	default:
		m.GradNorm = GlobalGradNorm(t.params)
	}
	if t.MP.Overflowed(m.GradNorm) {
		m.Skipped = true
		m.Scale = t.MP.LossScale()
		t.step++
		return m
	}
	m.LR = t.Cfg.Schedule.LR(t.step)
	t.MP.Apply(t.Opt, m.LR)
	m.Scale = t.MP.LossScale()
	t.step++
	return m
}

// commSnapshot sums the cumulative wire and phase counters over the
// model's CommReporter layers.
// Layers sharing one communicator share one wire counter, so those
// are deduped by comm identity; phase time is per-layer and summed
// directly.
func (t *Trainer) commSnapshot() (mpi.WireStats, moe.Timing) {
	var ws mpi.WireStats
	var tm moe.Timing
	seen := map[*mpi.Comm]bool{}
	for _, b := range t.Model.Blocks {
		if l, ok := b.FFN.(CommReporter); ok {
			tm = tm.Add(l.PhaseTiming())
			if c := l.Comm(); !seen[c] {
				seen[c] = true
				ws.Add(l.WireStats())
			}
		}
	}
	return ws, tm
}

// fillComm records the step's comm deltas against a pre-step
// snapshot.
func (t *Trainer) fillComm(m *Metrics, wire0 mpi.WireStats, comm0 moe.Timing) {
	ws, tm := t.commSnapshot()
	m.Wire = ws.Sub(wire0)
	m.Comm = tm.Sub(comm0)
}

// collectAux sums auxiliary losses and overflow counts over the
// model's MoE layers.
func (t *Trainer) collectAux() (aux float32, overflow int) {
	for _, b := range t.Model.Blocks {
		if l, ok := b.FFN.(AuxLossLayer); ok {
			aux += l.AuxLoss()
			if r := l.LastRouting(); r != nil {
				overflow += r.Overflow
			}
		}
	}
	return aux, overflow
}
