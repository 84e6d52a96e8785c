// Package nn implements the transformer layers of the BaGuaLu model
// stack — linear, embedding, layer norm, multi-head causal
// self-attention, feed-forward — with explicit, fused forward and
// backward passes.
//
// Layers cache whatever the backward pass needs during Forward, so
// the usage contract is strictly Forward-then-Backward per step (the
// pattern of synchronous pretraining). The autograd package provides
// an independent implementation that the tests in this package use as
// ground truth for every layer's gradients.
package nn

import (
	"fmt"

	"bagualu/internal/tensor"
)

// Param is one trainable tensor with its gradient accumulator.
//
// A Param may be a shard view of a larger logical tensor (a ZeRO
// optimizer-state range): FullShape then records the logical shape and
// ShardLo the flat offset of W within it, so checkpoint records can be
// reassembled across shard layouts. For ordinary full tensors both
// are zero values (FullShape nil means W covers the whole tensor).
type Param struct {
	Name      string
	W         *tensor.Tensor
	G         *tensor.Tensor
	FullShape []int
	ShardLo   int
}

// FullLen returns the element count of the logical tensor this param
// belongs to: the product of FullShape when it is a shard view, or
// len(W.Data) for a full tensor.
func (p *Param) FullLen() int {
	if p.FullShape == nil {
		return p.W.Len()
	}
	n := 1
	for _, d := range p.FullShape {
		n *= d
	}
	return n
}

// NewParam allocates a parameter with a zeroed gradient.
func NewParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, G: tensor.New(w.Shape...)}
}

// ZeroGrad clears the gradient.
func (p *Param) ZeroGrad() { p.G.Zero() }

// Len returns the number of scalar weights.
func (p *Param) Len() int { return p.W.Len() }

// Layer is a module with a 2-D activation interface: Forward maps
// [rows, in] to [rows, out], Backward consumes d(loss)/d(output) and
// returns d(loss)/d(input) while accumulating parameter gradients.
type Layer interface {
	Forward(x *tensor.Tensor) *tensor.Tensor
	Backward(dout *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// NumParams sums the weight counts of a parameter list.
func NumParams(ps []*Param) int {
	n := 0
	for _, p := range ps {
		n += p.Len()
	}
	return n
}

// ZeroGrads clears every gradient in the list.
func ZeroGrads(ps []*Param) {
	for _, p := range ps {
		p.ZeroGrad()
	}
}

// Linear is a dense layer: y = x@W + b, with W stored [in, out].
type Linear struct {
	In, Out int
	Weight  *Param
	Bias    *Param // nil when constructed without bias

	x *tensor.Tensor // cached input
}

// NewLinear constructs a Xavier-initialized dense layer.
func NewLinear(name string, r *tensor.RNG, in, out int, bias bool) *Linear {
	l := &Linear{
		In: in, Out: out,
		Weight: NewParam(name+".weight", tensor.XavierInit(r, in, out, in, out)),
	}
	if bias {
		l.Bias = NewParam(name+".bias", tensor.Zeros(out))
	}
	return l
}

// Forward computes x@W (+ b).
func (l *Linear) Forward(x *tensor.Tensor) *tensor.Tensor {
	if x.Shape[1] != l.In {
		panic(fmt.Sprintf("nn: Linear input %v, want [_, %d]", x.Shape, l.In))
	}
	l.x = x
	out := tensor.MatMul(x, l.Weight.W)
	if l.Bias != nil {
		tensor.AddRowVector(out, l.Bias.W)
	}
	return out
}

// Backward accumulates dW = xᵀ@dout, db = Σrows(dout) and returns
// dx = dout@Wᵀ.
func (l *Linear) Backward(dout *tensor.Tensor) *tensor.Tensor {
	tensor.AddInPlace(l.Weight.G, tensor.MatMulTransA(l.x, dout))
	if l.Bias != nil {
		tensor.AddInPlace(l.Bias.G, tensor.SumRows(dout))
	}
	return tensor.MatMulTransB(dout, l.Weight.W)
}

// Params returns the layer's parameters.
func (l *Linear) Params() []*Param {
	if l.Bias == nil {
		return []*Param{l.Weight}
	}
	return []*Param{l.Weight, l.Bias}
}

// Embedding maps integer ids to learned vectors.
type Embedding struct {
	Vocab, Dim int
	Table      *Param

	ids []int
}

// NewEmbedding constructs an N(0, 0.02²)-initialized table.
func NewEmbedding(name string, r *tensor.RNG, vocab, dim int) *Embedding {
	return &Embedding{
		Vocab: vocab, Dim: dim,
		Table: NewParam(name+".table", tensor.Randn(r, 0.02, vocab, dim)),
	}
}

// ForwardIDs gathers rows for each id.
func (e *Embedding) ForwardIDs(ids []int) *tensor.Tensor {
	e.ids = ids
	out := tensor.Scratch(len(ids), e.Dim)
	for i, id := range ids {
		if id < 0 || id >= e.Vocab {
			panic(fmt.Sprintf("nn: embedding id %d out of vocab %d", id, e.Vocab))
		}
		copy(out.Row(i), e.Table.W.Row(id))
	}
	return out
}

// BackwardIDs scatters gradients back into the table rows.
func (e *Embedding) BackwardIDs(dout *tensor.Tensor) {
	for i, id := range e.ids {
		row := e.Table.G.Row(id)
		g := dout.Row(i)
		for j := range row {
			row[j] += g[j]
		}
	}
}

// Params returns the table.
func (e *Embedding) Params() []*Param { return []*Param{e.Table} }

// LayerNorm normalizes rows with learned gain and bias.
type LayerNorm struct {
	Dim   int
	Gamma *Param
	Beta  *Param
	Eps   float32

	norm *tensor.Tensor // cached normalized input
	inv  []float32      // cached 1/std per row
}

// NewLayerNorm constructs an identity-initialized layer norm.
func NewLayerNorm(name string, dim int) *LayerNorm {
	return &LayerNorm{
		Dim:   dim,
		Gamma: NewParam(name+".gamma", tensor.Ones(dim)),
		Beta:  NewParam(name+".beta", tensor.Zeros(dim)),
		Eps:   1e-5,
	}
}

// Forward normalizes each row to zero mean / unit variance and
// applies gamma, beta.
func (l *LayerNorm) Forward(x *tensor.Tensor) *tensor.Tensor {
	rows, cols := x.Shape[0], x.Shape[1]
	if cols != l.Dim {
		panic(fmt.Sprintf("nn: LayerNorm input %v, want [_, %d]", x.Shape, l.Dim))
	}
	l.norm = tensor.Scratch(rows, cols)
	if cap(l.inv) < rows {
		l.inv = make([]float32, rows)
	} else {
		l.inv = l.inv[:rows]
	}
	out := tensor.Scratch(rows, cols)
	tensor.ParallelWork(rows, cols, func(s, e int) {
		for i := s; i < e; i++ {
			src := x.Row(i)
			var mu float64
			for _, v := range src {
				mu += float64(v)
			}
			mu /= float64(cols)
			var vs float64
			for _, v := range src {
				d := float64(v) - mu
				vs += d * d
			}
			iv := 1 / sqrt(vs/float64(cols)+float64(l.Eps))
			l.inv[i] = float32(iv)
			nRow := l.norm.Row(i)
			oRow := out.Row(i)
			for j, v := range src {
				n := float32((float64(v) - mu) * iv)
				nRow[j] = n
				oRow[j] = n*l.Gamma.W.Data[j] + l.Beta.W.Data[j]
			}
		}
	})
	return out
}

// Backward computes the layer-norm gradient.
func (l *LayerNorm) Backward(dout *tensor.Tensor) *tensor.Tensor {
	rows, cols := dout.Shape[0], dout.Shape[1]
	dx := tensor.Scratch(rows, cols)
	dgamma := tensor.Scratch(cols)
	dbeta := tensor.Scratch(cols)
	dn := make([]float64, cols)
	for i := 0; i < rows; i++ {
		g := dout.Row(i)
		n := l.norm.Row(i)
		var sumD, sumDN float64
		for j := 0; j < cols; j++ {
			dgamma.Data[j] += g[j] * n[j]
			dbeta.Data[j] += g[j]
			dn[j] = float64(g[j]) * float64(l.Gamma.W.Data[j])
			sumD += dn[j]
			sumDN += dn[j] * float64(n[j])
		}
		inv := float64(l.inv[i])
		dxRow := dx.Row(i)
		for j := 0; j < cols; j++ {
			dxRow[j] = float32(inv * (dn[j] - sumD/float64(cols) - float64(n[j])*sumDN/float64(cols)))
		}
	}
	tensor.AddInPlace(l.Gamma.G, dgamma)
	tensor.AddInPlace(l.Beta.G, dbeta)
	return dx
}

// Params returns gamma and beta.
func (l *LayerNorm) Params() []*Param { return []*Param{l.Gamma, l.Beta} }

// GELU is the activation layer used by the FFN experts.
type GELU struct {
	x *tensor.Tensor
}

// Forward applies GELU elementwise.
func (g *GELU) Forward(x *tensor.Tensor) *tensor.Tensor {
	g.x = x
	return tensor.GELU(x)
}

// Backward multiplies by GELU'(x).
func (g *GELU) Backward(dout *tensor.Tensor) *tensor.Tensor {
	return tensor.Mul(dout, tensor.GELUGrad(g.x))
}

// Params returns nil; GELU is stateless.
func (g *GELU) Params() []*Param { return nil }

// FeedForward is the dense MLP block: Linear -> GELU -> Linear. It is
// also the "expert" unit replicated by the MoE layer.
type FeedForward struct {
	Up   *Linear
	Act  *GELU
	Down *Linear
}

// NewFeedForward constructs a d -> hidden -> d MLP.
func NewFeedForward(name string, r *tensor.RNG, d, hidden int) *FeedForward {
	return &FeedForward{
		Up:   NewLinear(name+".up", r, d, hidden, true),
		Act:  &GELU{},
		Down: NewLinear(name+".down", r, hidden, d, true),
	}
}

// Forward applies the MLP.
func (f *FeedForward) Forward(x *tensor.Tensor) *tensor.Tensor {
	return f.Down.Forward(f.Act.Forward(f.Up.Forward(x)))
}

// Backward reverses the MLP.
func (f *FeedForward) Backward(dout *tensor.Tensor) *tensor.Tensor {
	return f.Up.Backward(f.Act.Backward(f.Down.Backward(dout)))
}

// Params returns all MLP parameters.
func (f *FeedForward) Params() []*Param {
	return append(f.Up.Params(), f.Down.Params()...)
}

// FFNState captures one forward pass's activations so its backward
// can run later. The single-slot caches inside Linear/GELU only hold
// the most recent pass, which breaks when a FeedForward runs more
// than once per step — the MoE overlap path drives each expert
// through separate local-token and remote-token passes.
type FFNState struct {
	x   *tensor.Tensor // block input
	up  *tensor.Tensor // pre-activation (Up output)
	act *tensor.Tensor // post-GELU (Down input)
}

// ForwardState applies the MLP like Forward but returns the backward
// context explicitly instead of storing it in the layers, so multiple
// in-flight passes can coexist. x must stay alive until BackwardState.
func (f *FeedForward) ForwardState(x *tensor.Tensor) (*tensor.Tensor, *FFNState) {
	up := tensor.MatMul(x, f.Up.Weight.W)
	if f.Up.Bias != nil {
		tensor.AddRowVector(up, f.Up.Bias.W)
	}
	act := tensor.GELU(up)
	out := tensor.MatMul(act, f.Down.Weight.W)
	if f.Down.Bias != nil {
		tensor.AddRowVector(out, f.Down.Bias.W)
	}
	return out, &FFNState{x: x, up: up, act: act}
}

// BackwardState accumulates parameter gradients for the pass captured
// in st and returns the input gradient.
func (f *FeedForward) BackwardState(dout *tensor.Tensor, st *FFNState) *tensor.Tensor {
	tensor.AddInPlace(f.Down.Weight.G, tensor.MatMulTransA(st.act, dout))
	if f.Down.Bias != nil {
		tensor.AddInPlace(f.Down.Bias.G, tensor.SumRows(dout))
	}
	dact := tensor.MatMulTransB(dout, f.Down.Weight.W)
	dup := tensor.Mul(dact, tensor.GELUGrad(st.up))
	tensor.AddInPlace(f.Up.Weight.G, tensor.MatMulTransA(st.x, dup))
	if f.Up.Bias != nil {
		tensor.AddInPlace(f.Up.Bias.G, tensor.SumRows(dup))
	}
	return tensor.MatMulTransB(dup, f.Up.Weight.W)
}
