package nn

import (
	"math"
	"testing"

	"bagualu/internal/tensor"
)

// numGrad computes a central-difference numerical gradient of f with
// respect to entry i of t.
func numGrad(t *tensor.Tensor, i int, f func() float32) float32 {
	const h = 1e-3
	orig := t.Data[i]
	t.Data[i] = orig + h
	fp := f()
	t.Data[i] = orig - h
	fm := f()
	t.Data[i] = orig
	return (fp - fm) / (2 * h)
}

// checkGrads verifies analytic gradients of param against numerical
// differentiation of the loss builder.
func checkGrads(t *testing.T, name string, param *tensor.Tensor, build func() float32, analytic *tensor.Tensor, tol float64) {
	t.Helper()
	for i := range param.Data {
		want := numGrad(param, i, build)
		got := analytic.Data[i]
		if math.Abs(float64(got-want)) > tol*math.Max(1, math.Abs(float64(want))) {
			t.Fatalf("%s: grad[%d] = %v, numeric %v", name, i, got, want)
		}
	}
}

func TestAddBackward(t *testing.T) {
	r := tensor.NewRNG(1)
	av := tensor.Randn(r, 1, 3, 4)
	bv := tensor.Randn(r, 1, 3, 4)
	g := NewGraph()
	a, b := g.Param(av), g.Param(bv)
	loss := g.Sum(g.Add(a, b))
	g.Backward(loss)
	for i := range a.Grad.Data {
		if a.Grad.Data[i] != 1 || b.Grad.Data[i] != 1 {
			t.Fatal("Add gradient is not ones")
		}
	}
}

func TestMulBackwardNumeric(t *testing.T) {
	r := tensor.NewRNG(2)
	av := tensor.Randn(r, 1, 2, 3)
	bv := tensor.Randn(r, 1, 2, 3)
	build := func() float32 {
		g := NewGraph()
		return g.Sum(g.Mul(g.Param(av), g.Param(bv))).Value.Data[0]
	}
	g := NewGraph()
	a, b := g.Param(av), g.Param(bv)
	g.Backward(g.Sum(g.Mul(a, b)))
	checkGrads(t, "Mul/a", av, build, a.Grad, 1e-2)
	checkGrads(t, "Mul/b", bv, build, b.Grad, 1e-2)
}

func TestSubScaleBackward(t *testing.T) {
	r := tensor.NewRNG(3)
	av := tensor.Randn(r, 1, 4)
	bv := tensor.Randn(r, 1, 4)
	g := NewGraph()
	a, b := g.Param(av), g.Param(bv)
	loss := g.Sum(g.Scale(g.Sub(a, b), 3))
	g.Backward(loss)
	for i := range a.Grad.Data {
		if a.Grad.Data[i] != 3 || b.Grad.Data[i] != -3 {
			t.Fatalf("grads = %v, %v", a.Grad.Data[i], b.Grad.Data[i])
		}
	}
}

func TestMatMulBackwardNumeric(t *testing.T) {
	r := tensor.NewRNG(4)
	av := tensor.Randn(r, 0.5, 3, 4)
	bv := tensor.Randn(r, 0.5, 4, 2)
	build := func() float32 {
		g := NewGraph()
		return g.Sum(g.MatMul(g.Param(av), g.Param(bv))).Value.Data[0]
	}
	g := NewGraph()
	a, b := g.Param(av), g.Param(bv)
	g.Backward(g.Sum(g.MatMul(a, b)))
	checkGrads(t, "MatMul/a", av, build, a.Grad, 1e-2)
	checkGrads(t, "MatMul/b", bv, build, b.Grad, 1e-2)
}

func TestAddBiasBackward(t *testing.T) {
	r := tensor.NewRNG(5)
	av := tensor.Randn(r, 1, 3, 4)
	bv := tensor.Randn(r, 1, 4)
	g := NewGraph()
	a, b := g.Param(av), g.Param(bv)
	g.Backward(g.Sum(g.AddBias(a, b)))
	for _, v := range b.Grad.Data {
		if v != 3 { // summed over 3 rows
			t.Fatalf("bias grad = %v, want 3", v)
		}
	}
	_ = a
}

func TestActivationsBackwardNumeric(t *testing.T) {
	r := tensor.NewRNG(6)
	xv := tensor.Randn(r, 1, 2, 5)
	type act struct {
		name string
		f    func(g *Graph, x *Node) *Node
	}
	for _, a := range []act{
		{"GELU", func(g *Graph, x *Node) *Node { return g.GELU(x) }},
		{"ReLU", func(g *Graph, x *Node) *Node { return g.ReLU(x) }},
		{"Tanh", func(g *Graph, x *Node) *Node { return g.Tanh(x) }},
		{"Sigmoid", func(g *Graph, x *Node) *Node { return g.Sigmoid(x) }},
	} {
		build := func() float32 {
			g := NewGraph()
			return g.Sum(a.f(g, g.Param(xv))).Value.Data[0]
		}
		g := NewGraph()
		x := g.Param(xv)
		g.Backward(g.Sum(a.f(g, x)))
		checkGrads(t, a.name, xv, build, x.Grad, 2e-2)
	}
}

func TestSoftmaxBackwardNumeric(t *testing.T) {
	r := tensor.NewRNG(7)
	xv := tensor.Randn(r, 1, 2, 4)
	wv := tensor.Randn(r, 1, 2, 4) // weights to make loss non-trivial
	build := func() float32 {
		g := NewGraph()
		return g.Sum(g.Mul(g.Softmax(g.Param(xv)), g.Input(wv))).Value.Data[0]
	}
	g := NewGraph()
	x := g.Param(xv)
	g.Backward(g.Sum(g.Mul(g.Softmax(x), g.Input(wv))))
	checkGrads(t, "Softmax", xv, build, x.Grad, 2e-2)
}

func TestLayerNormBackwardNumeric(t *testing.T) {
	r := tensor.NewRNG(8)
	xv := tensor.Randn(r, 1, 3, 6)
	gv := tensor.Uniform(r, 0.5, 1.5, 6)
	bv := tensor.Randn(r, 0.1, 6)
	wv := tensor.Randn(r, 1, 3, 6)
	build := func() float32 {
		g := NewGraph()
		return g.Sum(g.Mul(g.LayerNorm(g.Param(xv), g.Param(gv), g.Param(bv), 1e-5), g.Input(wv))).Value.Data[0]
	}
	g := NewGraph()
	x, gamma, beta := g.Param(xv), g.Param(gv), g.Param(bv)
	g.Backward(g.Sum(g.Mul(g.LayerNorm(x, gamma, beta, 1e-5), g.Input(wv))))
	checkGrads(t, "LayerNorm/x", xv, build, x.Grad, 5e-2)
	checkGrads(t, "LayerNorm/gamma", gv, build, gamma.Grad, 2e-2)
	checkGrads(t, "LayerNorm/beta", bv, build, beta.Grad, 2e-2)
}

func TestCrossEntropyBackwardNumeric(t *testing.T) {
	r := tensor.NewRNG(9)
	xv := tensor.Randn(r, 1, 4, 5)
	targets := []int{1, 0, 4, 2}
	build := func() float32 {
		g := NewGraph()
		return g.CrossEntropy(g.Param(xv), targets).Value.Data[0]
	}
	g := NewGraph()
	x := g.Param(xv)
	g.Backward(g.CrossEntropy(x, targets))
	checkGrads(t, "CrossEntropy", xv, build, x.Grad, 2e-2)
}

func TestCrossEntropyValue(t *testing.T) {
	// Uniform logits over V classes must give loss ln(V).
	g := NewGraph()
	x := g.Input(tensor.Zeros(2, 8))
	loss := g.CrossEntropy(x, []int{3, 5})
	want := math.Log(8)
	if math.Abs(float64(loss.Value.Data[0])-want) > 1e-5 {
		t.Fatalf("loss = %v, want %v", loss.Value.Data[0], want)
	}
}

func TestEmbeddingBackward(t *testing.T) {
	r := tensor.NewRNG(10)
	tv := tensor.Randn(r, 1, 5, 3)
	g := NewGraph()
	table := g.Param(tv)
	out := g.Embedding(table, []int{1, 1, 4})
	g.Backward(g.Sum(out))
	// Row 1 used twice -> grad 2; row 4 once -> 1; others 0.
	for j := 0; j < 3; j++ {
		if table.Grad.At(1, j) != 2 {
			t.Fatalf("grad row1 = %v", table.Grad.Row(1))
		}
		if table.Grad.At(4, j) != 1 {
			t.Fatalf("grad row4 = %v", table.Grad.Row(4))
		}
		if table.Grad.At(0, j) != 0 {
			t.Fatalf("grad row0 = %v", table.Grad.Row(0))
		}
	}
}

func TestEmbeddingForward(t *testing.T) {
	tv := tensor.FromSlice([]float32{0, 0, 1, 1, 2, 2}, 3, 2)
	g := NewGraph()
	out := g.Embedding(g.Input(tv), []int{2, 0})
	if out.Value.At(0, 0) != 2 || out.Value.At(1, 1) != 0 {
		t.Fatalf("embedding = %v", out.Value.Data)
	}
}

func TestMeanBackward(t *testing.T) {
	g := NewGraph()
	x := g.Param(tensor.FromSlice([]float32{1, 2, 3, 4}, 4))
	g.Backward(g.Mean(x))
	for _, v := range x.Grad.Data {
		if v != 0.25 {
			t.Fatalf("mean grad = %v", v)
		}
	}
}

func TestReshapeBackward(t *testing.T) {
	r := tensor.NewRNG(11)
	xv := tensor.Randn(r, 1, 2, 6)
	g := NewGraph()
	x := g.Param(xv)
	y := g.Reshape(x, 3, 4)
	g.Backward(g.Sum(y))
	if x.Grad.Shape[0] != 2 || x.Grad.Shape[1] != 6 {
		t.Fatalf("grad shape %v", x.Grad.Shape)
	}
}

func TestNoGradThroughInputs(t *testing.T) {
	g := NewGraph()
	x := g.Input(tensor.Ones(2, 2))
	y := g.Param(tensor.Ones(2, 2))
	g.Backward(g.Sum(g.Mul(x, y)))
	if x.Grad != nil {
		t.Fatal("input accumulated a gradient")
	}
	if y.Grad == nil {
		t.Fatal("param missing gradient")
	}
	if x.RequiresGrad() || !y.RequiresGrad() {
		t.Fatal("RequiresGrad flags wrong")
	}
}

func TestGradAccumulationAcrossUses(t *testing.T) {
	// y = x*x (same node used twice) => dy/dx = 2x.
	g := NewGraph()
	x := g.Param(tensor.FromSlice([]float32{3}, 1))
	g.Backward(g.Sum(g.Mul(x, x)))
	if x.Grad.Data[0] != 6 {
		t.Fatalf("d(x^2)/dx at 3 = %v, want 6", x.Grad.Data[0])
	}
}

func TestZeroGrad(t *testing.T) {
	g := NewGraph()
	x := g.Param(tensor.Ones(2))
	g.Backward(g.Sum(x))
	if x.Grad == nil {
		t.Fatal("no grad")
	}
	g.ZeroGrad()
	if x.Grad != nil {
		t.Fatal("ZeroGrad did not clear")
	}
}

// TestTwoLayerMLPTrains is an end-to-end sanity check: a 2-layer MLP
// must fit a tiny classification problem.
func TestTwoLayerMLPTrains(t *testing.T) {
	r := tensor.NewRNG(12)
	const n, din, dh, classes = 16, 4, 16, 3
	x := tensor.Randn(r, 1, n, din)
	targets := make([]int, n)
	for i := range targets {
		targets[i] = i % classes
	}
	w1 := tensor.XavierInit(r, din, dh, din, dh)
	b1 := tensor.Zeros(dh)
	w2 := tensor.XavierInit(r, dh, classes, dh, classes)
	b2 := tensor.Zeros(classes)

	var first, last float32
	for step := 0; step < 200; step++ {
		g := NewGraph()
		xin := g.Input(x)
		p1, pb1, p2, pb2 := g.Param(w1), g.Param(b1), g.Param(w2), g.Param(b2)
		h := g.GELU(g.AddBias(g.MatMul(xin, p1), pb1))
		logits := g.AddBias(g.MatMul(h, p2), pb2)
		loss := g.CrossEntropy(logits, targets)
		if step == 0 {
			first = loss.Value.Data[0]
		}
		last = loss.Value.Data[0]
		g.Backward(loss)
		for _, pair := range []struct{ w, gr *tensor.Tensor }{
			{w1, p1.Grad}, {b1, pb1.Grad}, {w2, p2.Grad}, {b2, pb2.Grad},
		} {
			tensor.AXPY(-0.5, pair.gr, pair.w)
		}
	}
	if last > first/4 {
		t.Fatalf("MLP did not train: first loss %v, last %v", first, last)
	}
}

func TestDivBackwardNumeric(t *testing.T) {
	r := tensor.NewRNG(80)
	av := tensor.Uniform(r, 0.5, 2, 2, 3)
	bv := tensor.Uniform(r, 0.5, 2, 2, 3)
	build := func() float32 {
		g := NewGraph()
		return g.Sum(g.Div(g.Param(av), g.Param(bv))).Value.Data[0]
	}
	g := NewGraph()
	a, b := g.Param(av), g.Param(bv)
	g.Backward(g.Sum(g.Div(a, b)))
	checkGrads(t, "Div/a", av, build, a.Grad, 1e-2)
	checkGrads(t, "Div/b", bv, build, b.Grad, 1e-2)
}

func TestExpLogInverse(t *testing.T) {
	r := tensor.NewRNG(81)
	xv := tensor.Uniform(r, 0.5, 2, 6)
	g := NewGraph()
	x := g.Param(xv)
	y := g.Log(g.Exp(x))
	if !y.Value.AllClose(xv, 1e-5) {
		t.Fatal("log(exp(x)) != x")
	}
	g.Backward(g.Sum(y))
	// d/dx log(exp(x)) = 1.
	for _, v := range x.Grad.Data {
		if math.Abs(float64(v)-1) > 1e-4 {
			t.Fatalf("grad %v, want 1", v)
		}
	}
}

func TestExpBackwardNumeric(t *testing.T) {
	r := tensor.NewRNG(82)
	xv := tensor.Uniform(r, -1, 1, 5)
	build := func() float32 {
		g := NewGraph()
		return g.Sum(g.Exp(g.Param(xv))).Value.Data[0]
	}
	g := NewGraph()
	x := g.Param(xv)
	g.Backward(g.Sum(g.Exp(x)))
	checkGrads(t, "Exp", xv, build, x.Grad, 1e-2)
}

func TestPowBackwardNumeric(t *testing.T) {
	r := tensor.NewRNG(83)
	xv := tensor.Uniform(r, 0.5, 2, 4)
	build := func() float32 {
		g := NewGraph()
		return g.Sum(g.Pow(g.Param(xv), 2.5)).Value.Data[0]
	}
	g := NewGraph()
	x := g.Param(xv)
	g.Backward(g.Sum(g.Pow(x, 2.5)))
	checkGrads(t, "Pow", xv, build, x.Grad, 1e-2)
}

func TestSliceRows(t *testing.T) {
	g := NewGraph()
	x := g.Param(tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 3, 2))
	s := g.SliceRows(x, 1, 3)
	if s.Value.Shape[0] != 2 || s.Value.At(0, 0) != 3 || s.Value.At(1, 1) != 6 {
		t.Fatalf("slice = %v", s.Value.Data)
	}
	g.Backward(g.Sum(s))
	want := []float32{0, 0, 1, 1, 1, 1}
	for i, v := range want {
		if x.Grad.Data[i] != v {
			t.Fatalf("slice grad = %v", x.Grad.Data)
		}
	}
}

func TestSliceRowsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g := NewGraph()
	g.SliceRows(g.Input(tensor.New(2, 2)), 1, 4)
}

func TestConcatRows(t *testing.T) {
	g := NewGraph()
	a := g.Param(tensor.FromSlice([]float32{1, 2}, 1, 2))
	b := g.Param(tensor.FromSlice([]float32{3, 4, 5, 6}, 2, 2))
	c := g.ConcatRows(a, b)
	if c.Value.Shape[0] != 3 || c.Value.At(2, 1) != 6 {
		t.Fatalf("concat = %v", c.Value.Data)
	}
	g.Backward(g.Scale(g.Sum(c), 2))
	if a.Grad.Data[0] != 2 || b.Grad.Data[3] != 2 {
		t.Fatalf("concat grads %v %v", a.Grad.Data, b.Grad.Data)
	}
}

func TestConcatSliceRoundTrip(t *testing.T) {
	r := tensor.NewRNG(84)
	xv := tensor.Randn(r, 1, 4, 3)
	g := NewGraph()
	x := g.Param(xv)
	top := g.SliceRows(x, 0, 2)
	bot := g.SliceRows(x, 2, 4)
	back := g.ConcatRows(top, bot)
	if !back.Value.AllClose(xv, 0) {
		t.Fatal("concat(slice) != identity")
	}
	g.Backward(g.Sum(back))
	for _, v := range x.Grad.Data {
		if v != 1 {
			t.Fatalf("identity grad %v", v)
		}
	}
}

func TestDropoutTrainAndEval(t *testing.T) {
	r := tensor.NewRNG(85)
	xv := tensor.Ones(1, 1000)

	// Eval path (nil RNG): exact identity.
	g := NewGraph()
	x := g.Param(xv)
	y := g.Dropout(x, 0.5, nil)
	if !y.Value.AllClose(xv, 0) {
		t.Fatal("eval dropout is not identity")
	}

	// Train path: ~half zeroed, survivors scaled by 2; the mean is
	// preserved in expectation.
	g2 := NewGraph()
	x2 := g2.Param(xv.Clone())
	y2 := g2.Dropout(x2, 0.5, r)
	zeros := 0
	for _, v := range y2.Value.Data {
		switch v {
		case 0:
			zeros++
		case 2:
		default:
			t.Fatalf("dropout value %v, want 0 or 2", v)
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Fatalf("dropped %d of 1000 at rate 0.5", zeros)
	}
	if math.Abs(float64(mean(y2.Value))-1) > 0.15 {
		t.Fatalf("dropout mean %v, want ~1", mean(y2.Value))
	}
	// Gradient flows only through survivors, with the same scale.
	g2.Backward(g2.Sum(y2))
	for i, v := range x2.Grad.Data {
		if y2.Value.Data[i] == 0 && v != 0 {
			t.Fatal("gradient leaked through dropped element")
		}
		if y2.Value.Data[i] == 2 && v != 2 {
			t.Fatalf("survivor grad %v, want 2", v)
		}
	}
}

func TestMeanRowsBackward(t *testing.T) {
	g := NewGraph()
	x := g.Param(tensor.FromSlice([]float32{1, 3, 2, 6}, 2, 2))
	m := g.MeanRows(x)
	if m.Value.Data[0] != 2 || m.Value.Data[1] != 4 {
		t.Fatalf("MeanRows = %v", m.Value.Data)
	}
	g.Backward(g.Sum(m))
	for _, v := range x.Grad.Data {
		if v != 0.5 {
			t.Fatalf("grad %v, want 0.5", v)
		}
	}
}

// The oracle's own tensor operations (autograd_ops_test.go) on values
// whose results are exact.
func TestOracleTensorOps(t *testing.T) {
	a := tensor.FromSlice([]float32{1, 2, 3, 4}, 4)
	b := tensor.FromSlice([]float32{4, 3, 2, 1}, 4)
	if got := sub(a, b); got.Data[0] != -3 || got.Data[3] != 3 {
		t.Fatalf("sub = %v", got.Data)
	}
	if got := div(a, b); got.Data[3] != 4 {
		t.Fatalf("div = %v", got.Data)
	}
	if got := scale(a, 2); got.Data[2] != 6 {
		t.Fatalf("scale = %v", got.Data)
	}
	if got := neg(a); got.Data[0] != -1 {
		t.Fatalf("neg = %v", got.Data)
	}
	c := tensor.FromSlice([]float32{1, -2, 3, 0}, 4)
	if sum(c) != 2 || mean(c) != 0.5 {
		t.Fatalf("sum = %v, mean = %v", sum(c), mean(c))
	}
	if sc := sumCols(tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)); sc.Data[0] != 6 || sc.Data[1] != 15 {
		t.Fatalf("sumCols = %v", sc.Data)
	}
	if r := relu(tensor.FromSlice([]float32{-2, 0, 2}, 3)); r.Data[0] != 0 || r.Data[2] != 2 {
		t.Fatalf("relu = %v", r.Data)
	}
	if sg := sigmoid(tensor.Zeros(1)); sg.Data[0] != 0.5 {
		t.Fatalf("sigmoid(0) = %v", sg.Data[0])
	}
	if th := tanh(tensor.Zeros(1)); th.Data[0] != 0 {
		t.Fatalf("tanh(0) = %v", th.Data[0])
	}
}
