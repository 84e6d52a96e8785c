package train

import (
	"fmt"

	"bagualu/internal/data"
	"bagualu/internal/nn"
	"bagualu/internal/parallel/pipe"
	"bagualu/internal/parallel/schedule"
	"bagualu/internal/sunway"
)

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
}

// Trainer runs synchronous next-token pretraining of a GPT model on a
// synthetic corpus, with the configured precision policy. It is the
// single-rank engine the parallel package replicates.
type Trainer struct {
	Model  *nn.GPT
	Corpus *data.Corpus
	Opt    Optimizer
	Cfg    Config

	MP *MixedPrecision

	// Runner drives every step's forward and backward passes. NewTrainer
	// builds the one-stage runner — one chunk holding every layer, Accum
	// micro-batches: plain gradient accumulation. The parallel engine
	// installs its stage's runner, with the same micro-batch count, in
	// its place.
	Runner *pipe.Runner

	params  []*nn.Param
	batches []pipe.MicroBatch
	step    int

	// PostBackward, when non-nil, runs after gradients are computed
	// and before the optimizer step, with the step's local metrics; the
	// parallel engine finishes its gradient sync here. It owns the
	// precision policy's gradient preparation (MP.PrepareGrads, which the
	// engine runs per bucket as the backward finishes each) and clipping
	// (Config.ClipNorm then does nothing), and returns the global
	// gradient norm, identical on every rank, which decides whether a
	// step is skipped: one rank's overflow reaches every rank through the
	// sync, so all skip together.
	PostBackward func(m Metrics) float32
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
	part, err := schedule.PartitionLayers(len(model.Blocks), 1)
	if err != nil {
		return nil, err
	}
	micro := max(cfg.Accum, 1)
	t := &Trainer{Model: model, Corpus: corpus, Opt: opt, Cfg: cfg, batches: make([]pipe.MicroBatch, micro)}
	t.Runner = &pipe.Runner{Stages: 1, Virtual: 1, Micro: micro, Model: model, Part: part, Rows: cfg.Batch * model.Cfg.SeqLen}
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

// Step draws the step's micro-batches, runs the runner's schedule over
// them — accumulating their gradients into the trainable parameter set
// — and applies one optimizer update: the precision policy, the
// PostBackward sync hook or local clipping, and the optimizer. Every
// rank of a pipeline column draws the same micro-batches (its corpus is
// seeded alike), so the stream stays aligned on every stage.
func (t *Trainer) Step() Metrics {
	nn.ZeroGrads(t.params)
	m := Metrics{Step: t.step}
	for i := range t.batches {
		t.batches[i].IDs, t.batches[i].Targets = t.Corpus.Batch(t.Cfg.Batch)
	}
	scale := t.MP.LossScale() * (1 / float32(len(t.batches)))
	m.Loss, m.AuxLoss, m.Overflow = t.Runner.Step(t.batches, scale)
	return t.finishStep(m)
}

// finishStep runs the precision policy, gradient sync hook, clipping,
// and the optimizer.
func (t *Trainer) finishStep(m Metrics) Metrics {
	if t.PostBackward == nil {
		t.MP.PrepareGrads(t.params)
	}
	switch {
	case t.PostBackward != nil:
		m.GradNorm = t.PostBackward(m)
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
