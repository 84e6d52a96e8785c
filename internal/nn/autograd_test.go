package nn

import (
	"fmt"
	"math"

	"bagualu/internal/tensor"
)

// The layers' gradient oracle: a tape-based reverse-mode automatic
// differentiation engine over the tensor package. The layers implement
// hand-fused explicit backward passes for speed; this engine is the
// independent ground truth those passes are cross-validated against
// (autograd_consistency_test.go). It is test code: no program runs it.
//
// Usage:
//
//	g := NewGraph()
//	x := g.Input(data)
//	w := g.Param(weights)
//	loss := g.Mean(g.Mul(d, d))
//	g.Backward(loss)
//	// w.Grad now holds dLoss/dW.

// Node is one value in the computation graph.
type Node struct {
	Value *tensor.Tensor
	Grad  *tensor.Tensor // allocated lazily; nil until backward touches it

	graph    *Graph
	requires bool
	back     func() // propagates this node's Grad into its parents
}

// RequiresGrad reports whether gradients flow through this node.
func (n *Node) RequiresGrad() bool { return n.requires }

// Graph is the tape: nodes are recorded in construction order, which
// is a valid topological order for reverse traversal.
type Graph struct {
	nodes []*Node
}

// NewGraph returns an empty tape.
func NewGraph() *Graph { return &Graph{} }

// Input records a constant input (no gradient).
func (g *Graph) Input(t *tensor.Tensor) *Node { return g.add(t, false, nil) }

// Param records a trainable parameter (gradient is accumulated).
func (g *Graph) Param(t *tensor.Tensor) *Node { return g.add(t, true, nil) }

func (g *Graph) add(t *tensor.Tensor, requires bool, back func()) *Node {
	n := &Node{Value: t, graph: g, requires: requires, back: back}
	g.nodes = append(g.nodes, n)
	return n
}

// op records the result of an operation whose parents include at
// least one grad-requiring node.
func (g *Graph) op(t *tensor.Tensor, back func(), parents ...*Node) *Node {
	requires := false
	for _, p := range parents {
		if p.requires {
			requires = true
			break
		}
	}
	if !requires {
		back = nil
	}
	return g.add(t, requires, back)
}

// accum adds delta into n.Grad, allocating it on first touch.
func (n *Node) accum(delta *tensor.Tensor) {
	if !n.requires {
		return
	}
	if n.Grad == nil {
		n.Grad = tensor.New(n.Value.Shape...)
	}
	tensor.AddInPlace(n.Grad, delta)
}

// Backward seeds loss.Grad with ones and runs reverse-mode
// differentiation over the tape. loss must be scalar-like (any shape
// is allowed; the seed is all-ones).
func (g *Graph) Backward(loss *Node) {
	if loss.graph != g {
		panic("autograd: Backward on node from another graph")
	}
	loss.Grad = tensor.Ones(loss.Value.Shape...)
	for i := len(g.nodes) - 1; i >= 0; i-- {
		n := g.nodes[i]
		if n.back != nil && n.Grad != nil {
			n.back()
		}
	}
}

// ZeroGrad clears all gradients on the tape (parameters keep their
// values).
func (g *Graph) ZeroGrad() {
	for _, n := range g.nodes {
		n.Grad = nil
	}
}

// ---- Arithmetic ----

// Add returns a+b (same shapes).
func (g *Graph) Add(a, b *Node) *Node {
	out := g.op(tensor.Add(a.Value, b.Value), nil, a, b)
	out.back = func() {
		a.accum(out.Grad)
		b.accum(out.Grad)
	}
	return out
}

// Sub returns a-b.
func (g *Graph) Sub(a, b *Node) *Node {
	out := g.op(sub(a.Value, b.Value), nil, a, b)
	out.back = func() {
		a.accum(out.Grad)
		b.accum(neg(out.Grad))
	}
	return out
}

// Mul returns the elementwise product a*b.
func (g *Graph) Mul(a, b *Node) *Node {
	out := g.op(tensor.Mul(a.Value, b.Value), nil, a, b)
	out.back = func() {
		a.accum(tensor.Mul(out.Grad, b.Value))
		b.accum(tensor.Mul(out.Grad, a.Value))
	}
	return out
}

// Scale returns a*c for scalar c.
func (g *Graph) Scale(a *Node, c float32) *Node {
	out := g.op(scale(a.Value, c), nil, a)
	out.back = func() {
		a.accum(scale(out.Grad, c))
	}
	return out
}

// AddBias adds a bias vector b (shape [cols]) to every row of a
// rank-2 tensor a.
func (g *Graph) AddBias(a, b *Node) *Node {
	v := a.Value.Clone()
	tensor.AddRowVector(v, b.Value)
	out := g.op(v, nil, a, b)
	out.back = func() {
		a.accum(out.Grad)
		b.accum(tensor.SumRows(out.Grad))
	}
	return out
}

// MatMul returns a@b for rank-2 tensors.
func (g *Graph) MatMul(a, b *Node) *Node {
	out := g.op(tensor.MatMul(a.Value, b.Value), nil, a, b)
	out.back = func() {
		// dA = dOut @ Bᵀ ; dB = Aᵀ @ dOut
		a.accum(tensor.MatMulTransB(out.Grad, b.Value))
		b.accum(tensor.MatMulTransA(a.Value, out.Grad))
	}
	return out
}

// Reshape returns a view with a new shape (shares data; gradient is
// reshaped back).
func (g *Graph) Reshape(a *Node, shape ...int) *Node {
	out := g.op(a.Value.Reshape(shape...), nil, a)
	out.back = func() {
		a.accum(out.Grad.Reshape(a.Value.Shape...))
	}
	return out
}

// ---- Activations ----

// GELU applies the Gaussian error linear unit.
func (g *Graph) GELU(a *Node) *Node {
	out := g.op(tensor.GELU(a.Value), nil, a)
	out.back = func() {
		a.accum(tensor.Mul(out.Grad, tensor.GELUGrad(a.Value)))
	}
	return out
}

// ReLU applies max(0, x).
func (g *Graph) ReLU(a *Node) *Node {
	out := g.op(relu(a.Value), nil, a)
	out.back = func() {
		mask := apply(a.Value, func(x float32) float32 {
			if x > 0 {
				return 1
			}
			return 0
		})
		a.accum(tensor.Mul(out.Grad, mask))
	}
	return out
}

// Tanh applies tanh elementwise.
func (g *Graph) Tanh(a *Node) *Node {
	t := tanh(a.Value)
	out := g.op(t, nil, a)
	out.back = func() {
		one := tensor.Ones(t.Shape...)
		a.accum(tensor.Mul(out.Grad, sub(one, tensor.Mul(t, t))))
	}
	return out
}

// Sigmoid applies the logistic function.
func (g *Graph) Sigmoid(a *Node) *Node {
	s := sigmoid(a.Value)
	out := g.op(s, nil, a)
	out.back = func() {
		one := tensor.Ones(s.Shape...)
		a.accum(tensor.Mul(out.Grad, tensor.Mul(s, sub(one, s))))
	}
	return out
}

// ---- Normalization and attention pieces ----

// LayerNorm normalizes rows of a rank-2 tensor with gain gamma and
// bias beta.
func (g *Graph) LayerNorm(a, gamma, beta *Node, eps float32) *Node {
	rows, cols := a.Value.Shape[0], a.Value.Shape[1]
	// Cache per-row mean and inverse std for the backward pass.
	mean := make([]float64, rows)
	inv := make([]float64, rows)
	norm := tensor.New(rows, cols) // (x-mean)*inv, pre-gamma
	out := tensor.New(rows, cols)
	for i := 0; i < rows; i++ {
		src := a.Value.Row(i)
		var mu float64
		for _, v := range src {
			mu += float64(v)
		}
		mu /= float64(cols)
		var varsum float64
		for _, v := range src {
			d := float64(v) - mu
			varsum += d * d
		}
		iv := 1 / math.Sqrt(varsum/float64(cols)+float64(eps))
		mean[i], inv[i] = mu, iv
		for j, v := range src {
			x := float32((float64(v) - mu) * iv)
			norm.Set(x, i, j)
			out.Set(x*gamma.Value.Data[j]+beta.Value.Data[j], i, j)
		}
	}
	o := g.op(out, nil, a, gamma, beta)
	o.back = func() {
		da := tensor.New(rows, cols)
		dgamma := tensor.New(cols)
		dbeta := tensor.New(cols)
		for i := 0; i < rows; i++ {
			gRow := o.Grad.Row(i)
			nRow := norm.Row(i)
			// dnorm = dout * gamma
			var sumD, sumDN float64
			dn := make([]float64, cols)
			for j := 0; j < cols; j++ {
				dgamma.Data[j] += gRow[j] * nRow[j]
				dbeta.Data[j] += gRow[j]
				dn[j] = float64(gRow[j]) * float64(gamma.Value.Data[j])
				sumD += dn[j]
				sumDN += dn[j] * float64(nRow[j])
			}
			for j := 0; j < cols; j++ {
				da.Set(float32(inv[i]*(dn[j]-sumD/float64(cols)-float64(nRow[j])*sumDN/float64(cols))), i, j)
			}
		}
		a.accum(da)
		gamma.accum(dgamma)
		beta.accum(dbeta)
	}
	return o
}

// Softmax applies a row-wise softmax to a rank-2 tensor.
func (g *Graph) Softmax(a *Node) *Node {
	s := tensor.SoftmaxRows(a.Value)
	out := g.op(s, nil, a)
	out.back = func() {
		rows, cols := s.Shape[0], s.Shape[1]
		da := tensor.New(rows, cols)
		for i := 0; i < rows; i++ {
			sRow := s.Row(i)
			gRow := out.Grad.Row(i)
			var dot float64
			for j := 0; j < cols; j++ {
				dot += float64(sRow[j]) * float64(gRow[j])
			}
			for j := 0; j < cols; j++ {
				da.Set(sRow[j]*(gRow[j]-float32(dot)), i, j)
			}
		}
		a.accum(da)
	}
	return out
}

// CrossEntropy computes the mean negative log-likelihood of integer
// targets under row-wise softmax of logits; the fused op is
// numerically stable and returns a 1-element node.
func (g *Graph) CrossEntropy(logits *Node, targets []int) *Node {
	rows := logits.Value.Shape[0]
	if len(targets) != rows {
		panic(fmt.Sprintf("autograd: %d targets for %d rows", len(targets), rows))
	}
	probs := tensor.SoftmaxRows(logits.Value)
	var loss float64
	for i, t := range targets {
		p := float64(probs.At(i, t))
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
	}
	lt := tensor.FromSlice([]float32{float32(loss / float64(rows))}, 1)
	out := g.op(lt, nil, logits)
	out.back = func() {
		scale := out.Grad.Data[0] / float32(rows)
		d := probs.Clone()
		for i, t := range targets {
			d.Set(d.At(i, t)-1, i, t)
		}
		tensor.ScaleInPlace(d, scale)
		logits.accum(d)
	}
	return out
}

// Embedding gathers rows of table by ids. table has shape [vocab,
// dim]; the result has shape [len(ids), dim].
func (g *Graph) Embedding(table *Node, ids []int) *Node {
	vocab, dim := table.Value.Shape[0], table.Value.Shape[1]
	out := tensor.New(len(ids), dim)
	for i, id := range ids {
		if id < 0 || id >= vocab {
			panic(fmt.Sprintf("autograd: id %d out of vocab %d", id, vocab))
		}
		copy(out.Row(i), table.Value.Row(id))
	}
	o := g.op(out, nil, table)
	o.back = func() {
		d := tensor.New(vocab, dim)
		for i, id := range ids {
			row := d.Row(id)
			gRow := o.Grad.Row(i)
			for j := range row {
				row[j] += gRow[j]
			}
		}
		table.accum(d)
	}
	return o
}

// Mean reduces to the scalar mean of all elements.
func (g *Graph) Mean(a *Node) *Node {
	m := tensor.FromSlice([]float32{mean(a.Value)}, 1)
	out := g.op(m, nil, a)
	out.back = func() {
		scale := out.Grad.Data[0] / float32(a.Value.Len())
		a.accum(tensor.Full(scale, a.Value.Shape...))
	}
	return out
}

// Sum reduces to the scalar sum of all elements.
func (g *Graph) Sum(a *Node) *Node {
	m := tensor.FromSlice([]float32{sum(a.Value)}, 1)
	out := g.op(m, nil, a)
	out.back = func() {
		a.accum(tensor.Full(out.Grad.Data[0], a.Value.Shape...))
	}
	return out
}

// Additional operations: elementwise transcendentals, row slicing and
// concatenation, and dropout — enough to express the full model zoo
// of the examples without touching the fused nn layers.

// Div returns a / b elementwise.
func (g *Graph) Div(a, b *Node) *Node {
	out := g.op(div(a.Value, b.Value), nil, a, b)
	out.back = func() {
		// d(a/b)/da = 1/b ; d(a/b)/db = -a/b².
		a.accum(div(out.Grad, b.Value))
		bb := tensor.Mul(b.Value, b.Value)
		b.accum(neg(div(tensor.Mul(out.Grad, a.Value), bb)))
	}
	return out
}

// Exp returns e^a elementwise.
func (g *Graph) Exp(a *Node) *Node {
	e := exp(a.Value)
	out := g.op(e, nil, a)
	out.back = func() {
		a.accum(tensor.Mul(out.Grad, e))
	}
	return out
}

// Log returns ln(a) elementwise (a must be positive).
func (g *Graph) Log(a *Node) *Node {
	out := g.op(log(a.Value), nil, a)
	out.back = func() {
		a.accum(div(out.Grad, a.Value))
	}
	return out
}

// Pow returns a^p elementwise for constant p.
func (g *Graph) Pow(a *Node, p float32) *Node {
	v := apply(a.Value, func(x float32) float32 {
		return float32(math.Pow(float64(x), float64(p)))
	})
	out := g.op(v, nil, a)
	out.back = func() {
		d := apply(a.Value, func(x float32) float32 {
			return p * float32(math.Pow(float64(x), float64(p-1)))
		})
		a.accum(tensor.Mul(out.Grad, d))
	}
	return out
}

// SliceRows returns rows [lo, hi) of a rank-2 tensor as a view-copy.
func (g *Graph) SliceRows(a *Node, lo, hi int) *Node {
	if len(a.Value.Shape) != 2 {
		panic(fmt.Sprintf("autograd: SliceRows on shape %v", a.Value.Shape))
	}
	rows, cols := a.Value.Shape[0], a.Value.Shape[1]
	if lo < 0 || hi > rows || lo >= hi {
		panic(fmt.Sprintf("autograd: SliceRows [%d,%d) of %d rows", lo, hi, rows))
	}
	v := tensor.New(hi-lo, cols)
	copy(v.Data, a.Value.Data[lo*cols:hi*cols])
	out := g.op(v, nil, a)
	out.back = func() {
		d := tensor.New(rows, cols)
		copy(d.Data[lo*cols:hi*cols], out.Grad.Data)
		a.accum(d)
	}
	return out
}

// ConcatRows stacks rank-2 tensors with equal column counts on the
// row axis.
func (g *Graph) ConcatRows(parts ...*Node) *Node {
	if len(parts) == 0 {
		panic("autograd: ConcatRows of nothing")
	}
	cols := parts[0].Value.Shape[1]
	rows := 0
	for _, p := range parts {
		if len(p.Value.Shape) != 2 || p.Value.Shape[1] != cols {
			panic(fmt.Sprintf("autograd: ConcatRows with shape %v, want [_, %d]", p.Value.Shape, cols))
		}
		rows += p.Value.Shape[0]
	}
	v := tensor.New(rows, cols)
	off := 0
	for _, p := range parts {
		copy(v.Data[off:], p.Value.Data)
		off += p.Value.Len()
	}
	out := g.op(v, nil, parts...)
	out.back = func() {
		off := 0
		for _, p := range parts {
			n := p.Value.Len()
			d := tensor.FromSlice(append([]float32(nil), out.Grad.Data[off:off+n]...), p.Value.Shape...)
			p.accum(d)
			off += n
		}
	}
	return out
}

// Dropout zeroes each element with probability rate and scales the
// survivors by 1/(1-rate) (inverted dropout). Pass the training-step
// RNG; a nil RNG disables dropout (identity), the inference path.
func (g *Graph) Dropout(a *Node, rate float32, r *tensor.RNG) *Node {
	if r == nil || rate <= 0 {
		return g.Scale(a, 1) // identity that still participates in the tape
	}
	if rate >= 1 {
		panic("autograd: dropout rate must be < 1")
	}
	keep := 1 - rate
	mask := tensor.New(a.Value.Shape...)
	for i := range mask.Data {
		if r.Float32() < keep {
			mask.Data[i] = 1 / keep
		}
	}
	out := g.op(tensor.Mul(a.Value, mask), nil, a)
	out.back = func() {
		a.accum(tensor.Mul(out.Grad, mask))
	}
	return out
}

// MeanRows reduces a rank-2 tensor to the per-row mean, shape [rows].
func (g *Graph) MeanRows(a *Node) *Node {
	if len(a.Value.Shape) != 2 {
		panic(fmt.Sprintf("autograd: MeanRows on shape %v", a.Value.Shape))
	}
	rows, cols := a.Value.Shape[0], a.Value.Shape[1]
	m := sumCols(a.Value)
	tensor.ScaleInPlace(m, 1/float32(cols))
	out := g.op(m, nil, a)
	out.back = func() {
		d := tensor.New(rows, cols)
		for i := 0; i < rows; i++ {
			gv := out.Grad.Data[i] / float32(cols)
			row := d.Row(i)
			for j := range row {
				row[j] = gv
			}
		}
		a.accum(d)
	}
	return out
}
