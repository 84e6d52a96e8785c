package nn

import "bagualu/internal/tensor"

// WeightGrads splits a backward pass in two. A layer deferring to it
// records each weight-gradient product (G += aᵀ@b) instead of running
// it, and Run later runs them in recording order; bias, layer-norm and
// embedding sums are not deferred. Every parameter belongs to one
// layer, so each gradient still accumulates in the order the fused
// backward adds it, bit for bit. The pipeline runner uses it to send a
// chunk's input gradient upstream before the weight GEMMs run.
//
// A nil *WeightGrads defers nothing: every product runs at once.
type WeightGrads struct{ ops []wgrad }

// wgrad is one recorded step: g += aᵀ@b, or gs[i] += aᵀ@b over row
// block off[i]..off[i+1] when gs is set, or fn.
type wgrad struct {
	g    *tensor.Tensor
	gs   []*tensor.Tensor
	off  []int
	a, b *tensor.Tensor
	fn   func()
}

// WeightGradDeferrer is a layer whose weight-gradient products can be
// recorded: DeferWeightGrads(w) makes its next backwards record into w,
// DeferWeightGrads(nil) makes them run their products again.
type WeightGradDeferrer interface {
	DeferWeightGrads(w *WeightGrads)
}

// addTransA accumulates aᵀ@b into g, or records it.
func (w *WeightGrads) addTransA(g, a, b *tensor.Tensor) {
	if w == nil {
		tensor.AddInPlace(g, tensor.MatMulTransA(a, b))
		return
	}
	w.ops = append(w.ops, wgrad{g: g, a: a, b: b})
}

// addGroupedTransA accumulates each row block's aᵀ@b into its gs entry,
// or records it. The offsets are copied: a layer may reuse them.
func (w *WeightGrads) addGroupedTransA(gs []*tensor.Tensor, a, b *tensor.Tensor, off []int) {
	if w == nil {
		tensor.GroupedMatMulTransAInto(gs, a, b, off)
		return
	}
	w.ops = append(w.ops, wgrad{gs: gs, off: append([]int(nil), off...), a: a, b: b})
}

// Then runs fn after the products recorded so far: at once when
// nothing is deferred. A layer that prices its own GEMMs on a virtual
// clock charges the deferred share through it.
func (w *WeightGrads) Then(fn func()) {
	if w == nil {
		fn()
		return
	}
	w.ops = append(w.ops, wgrad{fn: fn})
}

// Run runs what was recorded, in order, and empties w.
func (w *WeightGrads) Run() {
	for _, op := range w.ops {
		switch {
		case op.fn != nil:
			op.fn()
		case op.gs != nil:
			tensor.GroupedMatMulTransAInto(op.gs, op.a, op.b, op.off)
		default:
			tensor.AddInPlace(op.g, tensor.MatMulTransA(op.a, op.b))
		}
	}
	clear(w.ops)
	w.ops = w.ops[:0]
}
