// Package nn implements the transformer layers of the BaGuaLu model
// stack — linear, embedding, layer norm, multi-head causal
// self-attention, feed-forward — with explicit, fused forward and
// backward passes.
//
// Layers cache whatever the backward pass needs during Forward, so
// the usage contract is Forward-then-Backward. The caches are single
// slot; a pipeline that keeps several passes in flight moves them out
// of the layers and back (Stasher, GPT.Stash). A tape autograd engine
// in this package's tests (autograd_test.go) is the independent ground
// truth for every layer's gradients.
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

// Stasher is a layer whose single-slot forward caches can leave it
// while other passes run, as every layer that can sit in a block's FFN
// slot must. Stash hands out what the last Forward left for Backward,
// except its input, and empties the layer; Restore takes a Stash
// result back together with the input of the Forward that left it.
// Ownership moves and nothing is copied, so a stash is restored at
// most once. Forget empties the layer and releases what it held: the
// next Backward needs another Forward first.
type Stasher interface {
	Stash() any
	Restore(st any, x *tensor.Tensor)
	Forget()
}

// stasher returns the FFN slot's layer as a Stasher.
func stasher(l Layer) Stasher {
	s, ok := l.(Stasher)
	if !ok {
		panic(fmt.Sprintf("nn: FFN %T does not implement Stasher", l))
	}
	return s
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

	x  *tensor.Tensor // cached input
	wg *WeightGrads   // where Backward's dW goes; nil runs it at once
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

// Backward accumulates dW = xᵀ@dout (or records it, see
// DeferWeightGrads), db = Σrows(dout) and returns dx = dout@Wᵀ.
func (l *Linear) Backward(dout *tensor.Tensor) *tensor.Tensor {
	l.wg.addTransA(l.Weight.G, l.x, dout)
	if l.Bias != nil {
		tensor.AddInPlace(l.Bias.G, tensor.SumRows(dout))
	}
	return tensor.MatMulTransB(dout, l.Weight.W)
}

// Restore and Forget move Linear's one cache, its input, in and out
// for a layer that stashes it (moe.Gate's projection).
func (l *Linear) Restore(x *tensor.Tensor) { l.x = x }
func (l *Linear) Forget()                  { l.x = nil }

// DeferWeightGrads makes Backward record dW into w (nil: run it).
func (l *Linear) DeferWeightGrads(w *WeightGrads) { l.wg = w }

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
	out := tensor.New(len(ids), e.Dim)
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
	l.norm = tensor.New(rows, cols)
	if cap(l.inv) < rows {
		l.inv = make([]float32, rows)
	} else {
		l.inv = l.inv[:rows]
	}
	out := tensor.New(rows, cols)
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
			for j, v := range src {
				nRow[j] = float32((float64(v) - mu) * iv)
			}
			l.affine(out.Row(i), nRow)
		}
	})
	return out
}

// affine writes gamma·n + beta into o: the one expression a LayerNorm
// output is made of, so an output rebuilt from the normalized rows has
// the forward's bits.
func (l *LayerNorm) affine(o, n []float32) {
	g, b := l.Gamma.W.Data, l.Beta.W.Data
	for j, v := range n {
		o[j] = v*g[j] + b[j]
	}
}

// normStash is what LayerNorm.Forward leaves for Backward. Its output
// is not kept: restore rebuilds it from the normalized rows.
type normStash struct {
	norm *tensor.Tensor
	inv  []float32
}

func (l *LayerNorm) stash() normStash {
	s := normStash{l.norm, l.inv}
	l.forget()
	return s
}

// restore takes a stash back and returns the output of the forward
// that left it, rebuilt from the normalized rows.
func (l *LayerNorm) restore(s normStash) *tensor.Tensor {
	l.norm, l.inv = s.norm, s.inv
	rows, cols := l.norm.Shape[0], l.norm.Shape[1]
	out := tensor.New(rows, cols)
	tensor.ParallelWork(rows, cols, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			l.affine(out.Row(i), l.norm.Row(i))
		}
	})
	return out
}

func (l *LayerNorm) forget() { l.norm, l.inv = nil, nil }

// Backward computes the layer-norm gradient.
func (l *LayerNorm) Backward(dout *tensor.Tensor) *tensor.Tensor {
	rows, cols := dout.Shape[0], dout.Shape[1]
	dx := tensor.New(rows, cols)
	dgamma := tensor.New(cols)
	dbeta := tensor.New(cols)
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

// Stash hands out the pre-activation (a *tensor.Tensor): the GELU's
// input. Its output, the down projection's input, is not kept.
func (f *FeedForward) Stash() any {
	up := f.Act.x
	f.Forget()
	return up
}

// Restore takes back a Stash result, rebuilding the GELU output from
// the pre-activation with the forward's own kernel.
func (f *FeedForward) Restore(st any, x *tensor.Tensor) {
	up := st.(*tensor.Tensor)
	f.Up.x, f.Act.x, f.Down.x = x, up, tensor.GELU(up)
}

// Forget empties the three layers' caches.
func (f *FeedForward) Forget() { f.Up.x, f.Act.x, f.Down.x = nil, nil, nil }

// DeferWeightGrads points both projections' dW at w.
func (f *FeedForward) DeferWeightGrads(w *WeightGrads) {
	f.Up.DeferWeightGrads(w)
	f.Down.DeferWeightGrads(w)
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
// in st (the weight products where the projections' Backward puts
// theirs) and returns the input gradient.
func (f *FeedForward) BackwardState(dout *tensor.Tensor, st *FFNState) *tensor.Tensor {
	f.Down.wg.addTransA(f.Down.Weight.G, st.act, dout)
	if f.Down.Bias != nil {
		tensor.AddInPlace(f.Down.Bias.G, tensor.SumRows(dout))
	}
	dact := tensor.MatMulTransB(dout, f.Down.Weight.W)
	dup := tensor.Mul(dact, tensor.GELUGrad(st.up))
	f.Up.wg.addTransA(f.Up.Weight.G, st.x, dup)
	if f.Up.Bias != nil {
		tensor.AddInPlace(f.Up.Bias.G, tensor.SumRows(dup))
	}
	return tensor.MatMulTransB(dup, f.Up.Weight.W)
}
