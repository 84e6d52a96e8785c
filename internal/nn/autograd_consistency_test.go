package nn

import (
	"testing"

	"bagualu/internal/tensor"
)

// These tests pin the nn package's hand-fused backward passes to the
// independent autograd engine, layer by layer and through a stacked
// composite — the strongest correctness evidence available without a
// reference framework.

func TestLinearMatchesAutograd(t *testing.T) {
	r := tensor.NewRNG(61)
	l := NewLinear("lin", r, 5, 3, true)
	x := tensor.Randn(r, 1, 7, 5)
	w := tensor.Randn(r, 1, 7, 3)

	out := l.Forward(x)
	ZeroGrads(l.Params())
	dx := l.Backward(tensor.Mul(w, tensor.Ones(w.Shape...)))

	g := NewGraph()
	xg := g.Param(x.Clone())
	wg := g.Param(l.Weight.W.Clone())
	bg := g.Param(l.Bias.W.Clone())
	og := g.AddBias(g.MatMul(xg, wg), bg)
	g.Backward(g.Sum(g.Mul(og, g.Input(w))))

	if !out.AllClose(og.Value, 1e-5) {
		t.Fatal("forward mismatch")
	}
	if !dx.AllClose(xg.Grad, 1e-4) {
		t.Fatal("input grad mismatch")
	}
	if !l.Weight.G.AllClose(wg.Grad, 1e-4) {
		t.Fatal("weight grad mismatch")
	}
	if !l.Bias.G.AllClose(bg.Grad, 1e-4) {
		t.Fatal("bias grad mismatch")
	}
}

func TestLayerNormMatchesAutograd(t *testing.T) {
	r := tensor.NewRNG(62)
	l := NewLayerNorm("ln", 6)
	for i := range l.Gamma.W.Data {
		l.Gamma.W.Data[i] = 0.7 + 0.1*float32(i)
		l.Beta.W.Data[i] = 0.05 * float32(i)
	}
	x := tensor.Randn(r, 1, 5, 6)
	w := tensor.Randn(r, 1, 5, 6)

	out := l.Forward(x)
	ZeroGrads(l.Params())
	dx := l.Backward(w.Clone())

	g := NewGraph()
	xg := g.Param(x.Clone())
	gg := g.Param(l.Gamma.W.Clone())
	bg := g.Param(l.Beta.W.Clone())
	og := g.LayerNorm(xg, gg, bg, l.Eps)
	g.Backward(g.Sum(g.Mul(og, g.Input(w))))

	if !out.AllClose(og.Value, 1e-5) {
		t.Fatal("forward mismatch")
	}
	if !dx.AllClose(xg.Grad, 1e-3) {
		t.Fatal("input grad mismatch")
	}
	if !l.Gamma.G.AllClose(gg.Grad, 1e-3) {
		t.Fatal("gamma grad mismatch")
	}
	if !l.Beta.G.AllClose(bg.Grad, 1e-3) {
		t.Fatal("beta grad mismatch")
	}
}

func TestFFNMatchesAutograd(t *testing.T) {
	r := tensor.NewRNG(63)
	f := NewFeedForward("ffn", r, 4, 8)
	x := tensor.Randn(r, 1, 6, 4)
	w := tensor.Randn(r, 1, 6, 4)

	out := f.Forward(x)
	ZeroGrads(f.Params())
	dx := f.Backward(w.Clone())

	g := NewGraph()
	xg := g.Param(x.Clone())
	w1 := g.Param(f.Up.Weight.W.Clone())
	b1 := g.Param(f.Up.Bias.W.Clone())
	w2 := g.Param(f.Down.Weight.W.Clone())
	b2 := g.Param(f.Down.Bias.W.Clone())
	h := g.GELU(g.AddBias(g.MatMul(xg, w1), b1))
	og := g.AddBias(g.MatMul(h, w2), b2)
	g.Backward(g.Sum(g.Mul(og, g.Input(w))))

	if !out.AllClose(og.Value, 1e-4) {
		t.Fatal("forward mismatch")
	}
	if !dx.AllClose(xg.Grad, 1e-3) {
		t.Fatal("input grad mismatch")
	}
	if !f.Up.Weight.G.AllClose(w1.Grad, 1e-3) {
		t.Fatal("up weight grad mismatch")
	}
	if !f.Down.Weight.G.AllClose(w2.Grad, 1e-3) {
		t.Fatal("down weight grad mismatch")
	}
}

func TestEmbeddingMatchesAutograd(t *testing.T) {
	r := tensor.NewRNG(64)
	e := NewEmbedding("emb", r, 9, 4)
	ids := []int{3, 1, 3, 8, 0}
	w := tensor.Randn(r, 1, 5, 4)

	out := e.ForwardIDs(ids)
	ZeroGrads(e.Params())
	e.BackwardIDs(w.Clone())

	g := NewGraph()
	tg := g.Param(e.Table.W.Clone())
	og := g.Embedding(tg, ids)
	g.Backward(g.Sum(g.Mul(og, g.Input(w))))

	if !out.AllClose(og.Value, 0) {
		t.Fatal("forward mismatch")
	}
	if !e.Table.G.AllClose(tg.Grad, 1e-5) {
		t.Fatal("table grad mismatch")
	}
}

func TestStackedCompositeMatchesAutograd(t *testing.T) {
	// LN -> Linear -> GELU -> Linear with cross-entropy, composed in
	// both systems.
	r := tensor.NewRNG(65)
	ln := NewLayerNorm("ln", 6)
	l1 := NewLinear("l1", r, 6, 10, true)
	l2 := NewLinear("l2", r, 10, 4, true)
	var act GELU
	x := tensor.Randn(r, 1, 5, 6)
	targets := []int{1, 0, 3, 2, 1}

	h := l2.Forward(act.Forward(l1.Forward(ln.Forward(x))))
	var ce SoftmaxCrossEntropy
	loss := ce.Forward(h, targets)
	ZeroGrads(append(append(ln.Params(), l1.Params()...), l2.Params()...))
	dx := ln.Backward(l1.Backward(act.Backward(l2.Backward(ce.Backward()))))

	g := NewGraph()
	xg := g.Param(x.Clone())
	gg := g.Param(ln.Gamma.W.Clone())
	bg := g.Param(ln.Beta.W.Clone())
	w1 := g.Param(l1.Weight.W.Clone())
	bb1 := g.Param(l1.Bias.W.Clone())
	w2 := g.Param(l2.Weight.W.Clone())
	bb2 := g.Param(l2.Bias.W.Clone())
	hg := g.AddBias(g.MatMul(g.GELU(g.AddBias(g.MatMul(g.LayerNorm(xg, gg, bg, ln.Eps), w1), bb1)), w2), bb2)
	lossG := g.CrossEntropy(hg, targets)
	g.Backward(lossG)

	if absDiff(loss, lossG.Value.Data[0]) > 1e-5 {
		t.Fatalf("loss mismatch: %v vs %v", loss, lossG.Value.Data[0])
	}
	if !dx.AllClose(xg.Grad, 1e-3) {
		t.Fatal("composite input grad mismatch")
	}
	if !l1.Weight.G.AllClose(w1.Grad, 1e-3) || !l2.Weight.G.AllClose(w2.Grad, 1e-3) {
		t.Fatal("composite weight grads mismatch")
	}
	if !ln.Gamma.G.AllClose(gg.Grad, 1e-3) {
		t.Fatal("composite gamma grad mismatch")
	}
}

func absDiff(a, b float32) float32 {
	if a > b {
		return a - b
	}
	return b - a
}
