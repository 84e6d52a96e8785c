package train

import (
	"math"

	"bagualu/internal/half"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/sunway"
)

// MixedPrecision implements the paper's numerical strategy for the
// SW26010-Pro half-precision units: FP16 working weights and
// gradients with FP32 master weights and dynamic loss scaling.
//
// Per step:
//  1. the loss gradient is scaled by Scale before backward;
//  2. after backward, gradients are rounded through FP16 (emulating
//     FP16 gradient storage; an overflow becomes Inf) and unscaled;
//  3. if the global gradient norm is not finite the step is skipped
//     and Scale halves; otherwise the optimizer updates the FP32
//     masters, and the working weights are refreshed as FP16
//     roundings of the masters;
//  4. after GrowthInterval consecutive good steps Scale doubles.
type MixedPrecision struct {
	Mode sunway.Precision

	Scale          float32
	GrowthInterval int
	MaxScale       float32

	goodSteps int
	skipped   int
	masters   [][]float32 // FP32 master copy per param
	params    []*nn.Param
}

// NewMixedPrecision wraps params in the given precision mode. FP32
// mode is a no-op passthrough; FP16/Mixed quantize; BF16 is modeled
// via sunway.FP16 with Mode distinctions handled by the caller.
func NewMixedPrecision(mode sunway.Precision, params []*nn.Param) *MixedPrecision {
	mp := &MixedPrecision{
		Mode:           mode,
		Scale:          1024,
		GrowthInterval: 100,
		MaxScale:       65536,
	}
	mp.cover(params)
	return mp
}

// cover moves the policy onto params, keeping its loss-scale state and,
// by identity, the FP32 master of every parameter it already covered. A
// parameter new to it gets a master snapshotted from its weights under
// Mixed, and its weights rounded to the working format under Mixed or
// BF16 (idempotent on weights already rounded).
func (mp *MixedPrecision) cover(params []*nn.Param) {
	if mp.Mode == sunway.Mixed {
		kept := make(map[*nn.Param][]float32, len(mp.masters))
		for i, m := range mp.masters {
			kept[mp.params[i]] = m
		}
		masters := make([][]float32, len(params))
		for i, p := range params {
			if masters[i] = kept[p]; masters[i] == nil {
				masters[i] = append([]float32(nil), p.W.Data...)
			}
		}
		mp.masters = masters
	}
	mp.params = params
	if mp.Mode == sunway.Mixed || mp.Mode == sunway.BF16 {
		mp.quantizeWeights()
	}
}

// LoadMasters copies each covered parameter's FP32 master over its
// working weights (Mixed only; there are no masters otherwise). The
// next cover rounds them again, which reproduces the working weights
// bitwise and snapshots the master of a parameter new to it from the
// unrounded values — so an expert migrated in between moves whole.
func (mp *MixedPrecision) LoadMasters() {
	for i, m := range mp.masters {
		copy(mp.params[i].W.Data, m)
	}
}

// LossScale returns the current loss scale (1 when scaling is off).
// BF16 keeps the FP32 exponent range and needs no scaling.
func (mp *MixedPrecision) LossScale() float32 {
	if mp.Mode == sunway.FP16 || mp.Mode == sunway.Mixed {
		return mp.Scale
	}
	return 1
}

// GradWire is the wire the gradient sync sends under this policy. Under
// FP16 and Mixed, PrepareGrads leaves every gradient on the FP16 grid
// at the loss scale, so the sync sends 16-bit values at that scale; FP32
// and BF16 gradients travel as float32.
func (mp *MixedPrecision) GradWire() mpi.GradWire {
	if mp.Mode == sunway.FP16 || mp.Mode == sunway.Mixed {
		return mpi.GradWire{Scale: mp.Scale}
	}
	return mpi.GradWire{}
}

// SkippedSteps reports how many steps were dropped due to overflow.
func (mp *MixedPrecision) SkippedSteps() int { return mp.skipped }

// quantizeWeights rounds working weights through the mode's storage
// format.
func (mp *MixedPrecision) quantizeWeights() {
	for _, p := range mp.params {
		if mp.Mode == sunway.BF16 {
			half.BQuantizeSlice(p.W.Data)
		} else {
			half.QuantizeSliceFast(p.W.Data)
		}
	}
}

// PrepareGrads post-processes the gradients of ps once backward has
// finished them: quantizes them per the mode and, under loss scaling,
// divides the loss scale back out. Each gradient is prepared once per
// step — all at once by the trainer, or bucket by bucket by the
// parallel engine's sync. It decides nothing: an overflow shows up as a
// non-finite gradient, and Overflowed rules on the norm once it is
// known.
func (mp *MixedPrecision) PrepareGrads(ps []*nn.Param) {
	switch mp.Mode {
	case sunway.BF16:
		// bfloat16 gradients: round, no scaling (the exponent range
		// matches FP32).
		for _, p := range ps {
			half.BQuantizeSlice(p.G.Data)
		}
	case sunway.FP16, sunway.Mixed:
		for _, p := range ps {
			half.QuantizeSliceFast(p.G.Data)
		}
		ScaleGrads(ps, 1/mp.Scale)
	}
}

// Overflowed reports whether the step whose gradients have global norm
// norm must be skipped: under a low-precision mode, a NaN or Inf
// gradient. A skip is counted and, under FP16 loss scaling, halves
// Scale. Ranks that pass the same synchronized norm decide alike.
func (mp *MixedPrecision) Overflowed(norm float32) bool {
	if mp.Mode != sunway.BF16 && mp.Mode != sunway.FP16 && mp.Mode != sunway.Mixed {
		return false
	}
	if f := float64(norm); !math.IsNaN(f) && !math.IsInf(f, 0) {
		return false
	}
	mp.skipped++
	if mp.Mode != sunway.BF16 {
		mp.goodSteps = 0
		if mp.Scale > 1 {
			mp.Scale /= 2
		}
	}
	return true
}

// Apply runs the optimizer against the right weight copy and refreshes
// the FP16 working weights in Mixed mode.
func (mp *MixedPrecision) Apply(opt Optimizer, lr float32) {
	if mp.Mode != sunway.Mixed {
		opt.Step(mp.params, lr)
		if mp.Mode == sunway.FP16 || mp.Mode == sunway.BF16 {
			mp.quantizeWeights()
		}
		mp.afterGoodStep()
		return
	}
	// The optimizer updates the masters in place: each is swapped in as
	// its parameter's weights for the step, and the working weights are
	// then written once, as the updated masters' FP16 roundings.
	mp.swapMasters()
	opt.Step(mp.params, lr)
	mp.swapMasters()
	for i, p := range mp.params {
		half.QuantizeInto(p.W.Data, mp.masters[i])
	}
	mp.afterGoodStep()
}

// swapMasters exchanges each covered parameter's weight slice with its
// FP32 master.
func (mp *MixedPrecision) swapMasters() {
	for i, p := range mp.params {
		p.W.Data, mp.masters[i] = mp.masters[i], p.W.Data
	}
}

func (mp *MixedPrecision) afterGoodStep() {
	if mp.Mode != sunway.FP16 && mp.Mode != sunway.Mixed {
		return
	}
	mp.goodSteps++
	if mp.goodSteps >= mp.GrowthInterval && mp.Scale < mp.MaxScale {
		mp.Scale *= 2
		mp.goodSteps = 0
	}
}
