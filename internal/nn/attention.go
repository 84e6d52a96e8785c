package nn

import (
	"fmt"
	"math"

	"bagualu/internal/tensor"
)

func sqrt(x float64) float64 { return math.Sqrt(x) }

// MultiHeadAttention is causal multi-head self-attention over
// fixed-length sequences. Input and output are flattened
// [batch*seq, d]; the layer infers the batch size from the row count.
type MultiHeadAttention struct {
	Dim, Heads, SeqLen int
	HeadDim            int

	QProj, KProj, VProj, OProj *Linear

	// Cached activations for backward, per forward call.
	q, k, v *tensor.Tensor // [B*H, S, hd]
	probs   *tensor.Tensor // [B*H, S, S] post-softmax attention
	batch   int
}

// NewMultiHeadAttention constructs the four projection matrices.
func NewMultiHeadAttention(name string, r *tensor.RNG, dim, heads, seqLen int) *MultiHeadAttention {
	if dim%heads != 0 {
		panic(fmt.Sprintf("nn: dim %d not divisible by heads %d", dim, heads))
	}
	return &MultiHeadAttention{
		Dim: dim, Heads: heads, SeqLen: seqLen, HeadDim: dim / heads,
		QProj: NewLinear(name+".q", r, dim, dim, true),
		KProj: NewLinear(name+".k", r, dim, dim, true),
		VProj: NewLinear(name+".v", r, dim, dim, true),
		OProj: NewLinear(name+".o", r, dim, dim, true),
	}
}

// splitHeads reshapes [B*S, d] into [B*H, S, hd].
func (m *MultiHeadAttention) splitHeads(x *tensor.Tensor, batch int) *tensor.Tensor {
	s, h, hd := m.SeqLen, m.Heads, m.HeadDim
	out := tensor.New(batch*h, s, hd)
	tensor.ParallelWork(batch*h, s*hd, func(lo, hi int) {
		for bh := lo; bh < hi; bh++ {
			b, head := bh/h, bh%h
			for t := 0; t < s; t++ {
				src := x.Data[(b*s+t)*m.Dim+head*hd : (b*s+t)*m.Dim+(head+1)*hd]
				dst := out.Data[(bh*s+t)*hd : (bh*s+t+1)*hd]
				copy(dst, src)
			}
		}
	})
	return out
}

// mergeHeads is the inverse of splitHeads.
func (m *MultiHeadAttention) mergeHeads(x *tensor.Tensor, batch int) *tensor.Tensor {
	s, h, hd := m.SeqLen, m.Heads, m.HeadDim
	out := tensor.New(batch*s, m.Dim)
	tensor.ParallelWork(batch*h, s*hd, func(lo, hi int) {
		for bh := lo; bh < hi; bh++ {
			b, head := bh/h, bh%h
			for t := 0; t < s; t++ {
				src := x.Data[(bh*s+t)*hd : (bh*s+t+1)*hd]
				dst := out.Data[(b*s+t)*m.Dim+head*hd : (b*s+t)*m.Dim+(head+1)*hd]
				copy(dst, src)
			}
		}
	})
	return out
}

// Forward computes causal self-attention.
func (m *MultiHeadAttention) Forward(x *tensor.Tensor) *tensor.Tensor {
	rows := x.Shape[0]
	if rows%m.SeqLen != 0 {
		panic(fmt.Sprintf("nn: attention rows %d not a multiple of seq len %d", rows, m.SeqLen))
	}
	batch := rows / m.SeqLen
	m.batch = batch
	s := m.SeqLen

	m.q = m.splitHeads(m.QProj.Forward(x), batch)
	m.k = m.splitHeads(m.KProj.Forward(x), batch)
	m.v = m.splitHeads(m.VProj.Forward(x), batch)

	// scores[bh] = q[bh] @ k[bh]ᵀ / sqrt(hd), causally masked.
	scores := tensor.BatchMatMulTransB(m.q, m.k)
	scale := float32(1 / sqrt(float64(m.HeadDim)))
	bh := batch * m.Heads
	tensor.ParallelWork(bh, s*s, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for ti := 0; ti < s; ti++ {
				row := scores.Data[(i*s+ti)*s : (i*s+ti+1)*s]
				for tj := range row {
					if tj > ti {
						row[tj] = float32(math.Inf(-1))
					} else {
						row[tj] *= scale
					}
				}
			}
		}
	})
	m.probs = tensor.SoftmaxRows(scores.Reshape(bh*s, s)).Reshape(bh, s, s)

	ctx := tensor.BatchMatMul(m.probs, m.v) // [B*H, S, hd]
	return m.OProj.Forward(m.mergeHeads(ctx, batch))
}

// Backward reverses the attention computation.
func (m *MultiHeadAttention) Backward(dout *tensor.Tensor) *tensor.Tensor {
	batch := m.batch
	s, hd := m.SeqLen, m.HeadDim
	bh := batch * m.Heads

	dctxFlat := m.OProj.Backward(dout)
	dctx := m.splitHeads(dctxFlat, batch) // [B*H, S, hd]

	// ctx = probs @ v  =>  dprobs = dctx @ vᵀ ; dv = probsᵀ @ dctx
	dprobs := tensor.BatchMatMulTransB(dctx, m.v) // [B*H, S, S]
	dv := tensor.New(bh, s, hd)
	tensor.ParallelRows(bh, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := tensor.FromSlice(m.probs.Data[i*s*s:(i+1)*s*s], s, s)
			d := tensor.FromSlice(dctx.Data[i*s*hd:(i+1)*s*hd], s, hd)
			dvb := tensor.MatMulTransA(p, d)
			copy(dv.Data[i*s*hd:(i+1)*s*hd], dvb.Data)
		}
	})

	// Softmax backward per row (masked entries have prob 0, so they
	// receive no gradient automatically).
	dscores := tensor.New(bh, s, s)
	scale := float32(1 / sqrt(float64(hd)))
	tensor.ParallelWork(bh, s*s, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for ti := 0; ti < s; ti++ {
				p := m.probs.Data[(i*s+ti)*s : (i*s+ti+1)*s]
				g := dprobs.Data[(i*s+ti)*s : (i*s+ti+1)*s]
				d := dscores.Data[(i*s+ti)*s : (i*s+ti+1)*s]
				var dot float64
				for j := range p {
					dot += float64(p[j]) * float64(g[j])
				}
				for j := range p {
					d[j] = p[j] * (g[j] - float32(dot)) * scale
				}
			}
		}
	})

	// scores = q @ kᵀ  =>  dq = dscores @ k ; dk = dscoresᵀ @ q
	dq := tensor.BatchMatMul(dscores, m.k)
	dk := tensor.New(bh, s, hd)
	tensor.ParallelRows(bh, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ds := tensor.FromSlice(dscores.Data[i*s*s:(i+1)*s*s], s, s)
			q := tensor.FromSlice(m.q.Data[i*s*hd:(i+1)*s*hd], s, hd)
			dkb := tensor.MatMulTransA(ds, q)
			copy(dk.Data[i*s*hd:(i+1)*s*hd], dkb.Data)
		}
	})

	dx := m.QProj.Backward(m.mergeHeads(dq, batch))
	tensor.AddInPlace(dx, m.KProj.Backward(m.mergeHeads(dk, batch)))
	tensor.AddInPlace(dx, m.VProj.Backward(m.mergeHeads(dv, batch)))
	return dx
}

// attnStash is what MultiHeadAttention.Forward leaves for Backward
// besides its input (the q, k and v projections' shared cache): the
// split heads, the attention weights, and the merged context the
// output projection read.
type attnStash struct {
	q, k, v, probs, ctx *tensor.Tensor
	batch               int
}

func (m *MultiHeadAttention) stash() attnStash {
	s := attnStash{m.q, m.k, m.v, m.probs, m.OProj.x, m.batch}
	m.forget()
	return s
}

// restore takes a stash back with x, the input of the forward that
// left it.
func (m *MultiHeadAttention) restore(s attnStash, x *tensor.Tensor) {
	m.q, m.k, m.v, m.probs, m.batch = s.q, s.k, s.v, s.probs, s.batch
	m.QProj.x, m.KProj.x, m.VProj.x, m.OProj.x = x, x, x, s.ctx
}

func (m *MultiHeadAttention) forget() {
	m.q, m.k, m.v, m.probs = nil, nil, nil, nil
	m.QProj.x, m.KProj.x, m.VProj.x, m.OProj.x = nil, nil, nil, nil
}

// DeferWeightGrads points the four projections' dW at w.
func (m *MultiHeadAttention) DeferWeightGrads(w *WeightGrads) {
	for _, l := range []*Linear{m.QProj, m.KProj, m.VProj, m.OProj} {
		l.DeferWeightGrads(w)
	}
}

// Params returns the four projections' parameters.
func (m *MultiHeadAttention) Params() []*Param {
	ps := m.QProj.Params()
	ps = append(ps, m.KProj.Params()...)
	ps = append(ps, m.VProj.Params()...)
	ps = append(ps, m.OProj.Params()...)
	return ps
}

// TransformerBlock is a pre-norm transformer layer: x + MHA(LN(x))
// followed by x + FFN(LN(x)). The FFN slot accepts any Layer, which
// is where the MoE layer plugs in.
type TransformerBlock struct {
	LN1  *LayerNorm
	Attn *MultiHeadAttention
	LN2  *LayerNorm
	FFN  Layer
}

// NewTransformerBlock builds a block with a dense FFN of the given
// hidden width. Pass a different Layer to replace the FFN (e.g. MoE).
func NewTransformerBlock(name string, r *tensor.RNG, dim, heads, seqLen, ffnHidden int) *TransformerBlock {
	return &TransformerBlock{
		LN1:  NewLayerNorm(name+".ln1", dim),
		Attn: NewMultiHeadAttention(name+".attn", r, dim, heads, seqLen),
		LN2:  NewLayerNorm(name+".ln2", dim),
		FFN:  NewFeedForward(name+".ffn", r, dim, ffnHidden),
	}
}

// Forward applies the block.
func (b *TransformerBlock) Forward(x *tensor.Tensor) *tensor.Tensor {
	h := tensor.Add(x, b.Attn.Forward(b.LN1.Forward(x)))
	return tensor.Add(h, b.FFN.Forward(b.LN2.Forward(h)))
}

// Backward reverses the block.
func (b *TransformerBlock) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dh := tensor.Add(dout, b.LN2.Backward(b.FFN.Backward(dout)))
	return tensor.Add(dh, b.LN1.Backward(b.Attn.Backward(dh)))
}

// blockStash is what a block's forward leaves for its backward. The
// block's backward reads nothing of its input, and the two norms'
// outputs — the attention's and the FFN's inputs — are rebuilt on
// restore.
type blockStash struct {
	ln1, ln2 normStash
	attn     attnStash
	ffn      any
}

func (b *TransformerBlock) stash() *blockStash {
	return &blockStash{
		ln1: b.LN1.stash(), attn: b.Attn.stash(),
		ln2: b.LN2.stash(), ffn: stasher(b.FFN).Stash(),
	}
}

func (b *TransformerBlock) restore(s *blockStash) {
	b.Attn.restore(s.attn, b.LN1.restore(s.ln1))
	stasher(b.FFN).Restore(s.ffn, b.LN2.restore(s.ln2))
}

// deferWeightGrads points the block's weight-gradient products at w:
// the attention projections' and, when it can defer, the FFN slot's.
func (b *TransformerBlock) deferWeightGrads(w *WeightGrads) {
	b.Attn.DeferWeightGrads(w)
	if d, ok := b.FFN.(WeightGradDeferrer); ok {
		d.DeferWeightGrads(w)
	}
}

func (b *TransformerBlock) forget() {
	b.LN1.forget()
	b.Attn.forget()
	b.LN2.forget()
	stasher(b.FFN).Forget()
}

// Params returns all block parameters.
func (b *TransformerBlock) Params() []*Param {
	ps := b.LN1.Params()
	ps = append(ps, b.Attn.Params()...)
	ps = append(ps, b.LN2.Params()...)
	ps = append(ps, b.FFN.Params()...)
	return ps
}
