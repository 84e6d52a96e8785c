// Package train provides the training stack: optimizers, learning-
// rate schedules, gradient clipping, the mixed-precision policy with
// dynamic loss scaling (the paper's numerical strategy on SW26010-Pro
// half-precision hardware), checkpointing, and a single-rank trainer
// that the parallel engine builds on.
package train

import (
	"fmt"
	"math"

	"bagualu/internal/nn"
	"bagualu/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	// Step applies one update with the given learning rate and
	// clears nothing: callers zero gradients themselves.
	Step(params []*nn.Param, lr float32)
}

// Adam is the Adam/AdamW optimizer. With WeightDecay > 0 it applies
// decoupled (AdamW-style) decay.
type Adam struct {
	Beta1, Beta2 float32
	Eps          float32
	WeightDecay  float32

	step int
	m    map[*nn.Param]*tensor.Tensor
	v    map[*nn.Param]*tensor.Tensor
}

// NewAdam constructs Adam with the conventional defaults
// (0.9, 0.999, 1e-8).
func NewAdam(weightDecay float32) *Adam {
	return &Adam{
		Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: weightDecay,
		m: map[*nn.Param]*tensor.Tensor{}, v: map[*nn.Param]*tensor.Tensor{},
	}
}

// Step applies one Adam update.
func (a *Adam) Step(params []*nn.Param, lr float32) {
	a.step++
	bc1 := 1 - float32(math.Pow(float64(a.Beta1), float64(a.step)))
	bc2 := 1 - float32(math.Pow(float64(a.Beta2), float64(a.step)))
	for _, p := range params {
		m := a.m[p]
		v := a.v[p]
		if m == nil {
			m = tensor.New(p.W.Shape...)
			v = tensor.New(p.W.Shape...)
			a.m[p] = m
			a.v[p] = v
		}
		w, g := p.W.Data, p.G.Data
		md, vd := m.Data, v.Data
		b1, b2, eps := a.Beta1, a.Beta2, a.Eps
		wd := a.WeightDecay
		tensor.Parallel(len(w), func(s, e int) {
			for i := s; i < e; i++ {
				md[i] = b1*md[i] + (1-b1)*g[i]
				vd[i] = b2*vd[i] + (1-b2)*g[i]*g[i]
				mh := md[i] / bc1
				vh := vd[i] / bc2
				upd := mh / (float32(math.Sqrt(float64(vh))) + eps)
				if wd > 0 {
					upd += wd * w[i]
				}
				w[i] -= lr * upd
			}
		})
	}
}

// StepCount returns the number of updates applied so far.
func (a *Adam) StepCount() int { return a.step }

// State, SetState, and Forget implement moe.OptStateCarrier: expert
// migration ships the first and second moments alongside a moved
// expert's weights, keeping the trajectory bit-exact. The shared step
// counter (bias correction) advances identically on every rank and
// needs no transfer.

// State returns p's (m, v) moments, or nil before the first update.
func (a *Adam) State(p *nn.Param) [][]float32 {
	m, v := a.m[p], a.v[p]
	if m == nil {
		return nil
	}
	return [][]float32{m.Data, v.Data}
}

// SetState installs shipped (m, v) moment slices for p.
func (a *Adam) SetState(p *nn.Param, state [][]float32) {
	if len(state) != 2 {
		return
	}
	m := tensor.New(p.W.Shape...)
	v := tensor.New(p.W.Shape...)
	copy(m.Data, state[0])
	copy(v.Data, state[1])
	a.m[p] = m
	a.v[p] = v
}

// Forget drops any moments held for p.
func (a *Adam) Forget(p *nn.Param) {
	delete(a.m, p)
	delete(a.v, p)
}

// Schedule maps a step index to a learning rate.
type Schedule interface {
	LR(step int) float32
}

// ConstantLR is a fixed learning rate.
type ConstantLR float32

// LR returns the constant rate.
func (c ConstantLR) LR(int) float32 { return float32(c) }

// WarmupCosine ramps linearly to Peak over Warmup steps and then
// decays with a cosine to Floor at Total steps; the schedule used for
// large-model pretraining.
type WarmupCosine struct {
	Peak   float32
	Floor  float32
	Warmup int
	Total  int
}

// LR evaluates the schedule.
func (s WarmupCosine) LR(step int) float32 {
	switch {
	case s.Warmup > 0 && step < s.Warmup:
		return s.Peak * float32(step+1) / float32(s.Warmup)
	case step >= s.Total:
		return s.Floor
	default:
		progress := float64(step-s.Warmup) / float64(s.Total-s.Warmup)
		cos := 0.5 * (1 + math.Cos(math.Pi*progress))
		return s.Floor + (s.Peak-s.Floor)*float32(cos)
	}
}

// GlobalGradNorm returns the L2 norm over all gradients.
func GlobalGradNorm(params []*nn.Param) float32 {
	var sum float64
	for _, p := range params {
		for _, g := range p.G.Data {
			sum += float64(g) * float64(g)
		}
	}
	return float32(math.Sqrt(sum))
}

// ClipGradNorm rescales all gradients so the global norm is at most
// maxNorm, returning the pre-clip norm.
func ClipGradNorm(params []*nn.Param, maxNorm float32) float32 {
	norm := GlobalGradNorm(params)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			tensor.ScaleInPlace(p.G, scale)
		}
	}
	return norm
}

// ScaleGrads multiplies every gradient by s (used to unscale after
// loss scaling and to average across data-parallel replicas).
func ScaleGrads(params []*nn.Param, s float32) {
	for _, p := range params {
		tensor.ScaleInPlace(p.G, s)
	}
}

// String describes the schedule for logs.
func (s WarmupCosine) String() string {
	return fmt.Sprintf("warmup-cosine(peak=%g, floor=%g, warmup=%d, total=%d)", s.Peak, s.Floor, s.Warmup, s.Total)
}

// OptimizerFactory returns a constructor for per-rank optimizer
// instances: ZeRO-sharded Adam when zero is set, replicated Adam
// otherwise. Every multi-rank driver needs one optimizer *per rank*
// (a shared instance races across rank goroutines), so harnesses take
// a factory rather than an Optimizer.
func OptimizerFactory(zero bool, weightDecay float32) func() Optimizer {
	if zero {
		return func() Optimizer { return NewShardedAdam(weightDecay) }
	}
	return func() Optimizer { return NewAdam(weightDecay) }
}
