package nn

import (
	"fmt"
	"math"

	"bagualu/internal/tensor"
)

// Inference-mode forward passes.
//
// The training forwards in this package cache activations for the
// backward pass and route large GEMMs to the tiled kernel, whose
// accumulation order depends on the problem shape. Serving needs
// neither gradients nor shape-dependent numerics: a KV-cache decode
// step must produce bitwise the same logits as re-forwarding the whole
// prefix, whatever the batch composition. Every inference matmul
// therefore goes through the unblocked i-k-j kernel (per-row
// accumulation order is independent of how many rows share the batch),
// and attention scores are computed row-by-row over exactly the cached
// prefix, which matches the causal-masked full-sequence softmax
// exactly (masked exp(-inf) terms contribute 0.0 to the sum).

// InferLayer is implemented by FFN layers that support an inference
// forward: no activation caching, no aux losses, batch-invariant
// numerics. moe.DistMoE implements it.
type InferLayer interface {
	Infer(x *tensor.Tensor) *tensor.Tensor
}

// InferLinear applies a Linear layer with the batch-invariant naive
// kernel and no backward cache.
func InferLinear(l *Linear, x *tensor.Tensor) *tensor.Tensor {
	out := tensor.MatMulNaive(x, l.Weight.W)
	if l.Bias != nil {
		tensor.AddRowVector(out, l.Bias.W)
	}
	return out
}

// InferLayerNorm applies a LayerNorm without caching normalization
// statistics for backward.
func InferLayerNorm(l *LayerNorm, x *tensor.Tensor) *tensor.Tensor {
	return tensor.LayerNormRows(x, l.Gamma.W, l.Beta.W, l.Eps)
}

// Infer runs the dense FFN without recording backward state.
func (f *FeedForward) Infer(x *tensor.Tensor) *tensor.Tensor {
	h := InferLinear(f.Up, x)
	return InferLinear(f.Down, tensor.GELU(h))
}

// KVCache holds the per-layer attention keys and values of one
// sequence at absolute positions 0..Len-1; MaxLen is bounded by the
// model's learned position-embedding table (SeqLen). Values are stored
// a position to a row. Keys are stored transposed, a position to a
// column, and only so: a query's scores against the whole prefix are
// then sums over rows of kT, which tensor.AxpyN runs with one prefix
// position per lane.
type KVCache struct {
	MaxLen int
	Len    int
	kT     []*tensor.Tensor // per layer, [Dim, MaxLen]
	v      []*tensor.Tensor // per layer, [MaxLen, Dim]
}

// NewKVCache allocates an empty cache sized for the model's context
// window.
func (g *GPT) NewKVCache() *KVCache {
	c := &KVCache{MaxLen: g.Cfg.SeqLen}
	for range g.Blocks {
		c.kT = append(c.kT, tensor.New(g.Cfg.Dim, g.Cfg.SeqLen))
		c.v = append(c.v, tensor.New(g.Cfg.SeqLen, g.Cfg.Dim))
	}
	return c
}

// InferRun names one sequence's slice of a mixed inference batch: Rows
// consecutive token rows (Rows == prompt length during prefill, 1
// during decode) appended to Cache starting at position Cache.Len.
type InferRun struct {
	Cache *KVCache
	Rows  int
}

// InferStep advances a mixed batch of sequences by one step. tokens
// concatenates the new token ids of every run in order (len(tokens) ==
// sum of Rows); each run's rows are processed at absolute positions
// Cache.Len..Cache.Len+Rows-1 and its cache length is bumped. Returns
// the [len(tokens), Vocab] logits. A zero-length batch is legal and
// returns nil — ranks with no resident sequences still call InferStep
// so that distributed-MoE dispatch stays collective across the
// communicator.
func (g *GPT) InferStep(tokens []int, runs []InferRun) *tensor.Tensor {
	total := 0
	for _, r := range runs {
		if r.Rows < 0 || r.Cache.Len+r.Rows > r.Cache.MaxLen {
			panic(fmt.Sprintf("nn: InferStep run overflows cache (%d+%d > %d)", r.Cache.Len, r.Rows, r.Cache.MaxLen))
		}
		total += r.Rows
	}
	if total != len(tokens) {
		panic(fmt.Sprintf("nn: InferStep %d tokens for %d run rows", len(tokens), total))
	}

	d := g.Cfg.Dim
	x := tensor.New(len(tokens), d)
	if total > 0 {
		emb := g.TokEmbed.ForwardIDs(tokens)
		copy(x.Data, emb.Data)
		p := g.PosEmbed.W
		row := 0
		for _, r := range runs {
			for i := 0; i < r.Rows; i++ {
				pos := r.Cache.Len + i
				xr := x.Row(row)
				pr := p.Data[pos*d : (pos+1)*d]
				for j := range xr {
					xr[j] += pr[j]
				}
				row++
			}
		}
	}

	for bi, blk := range g.Blocks {
		a := g.inferAttention(blk, bi, InferLayerNorm(blk.LN1, x), runs)
		h := tensor.Add(x, a)
		ffn, ok := blk.FFN.(InferLayer)
		if !ok {
			panic(fmt.Sprintf("nn: FFN %T does not implement InferLayer", blk.FFN))
		}
		f := ffn.Infer(InferLayerNorm(blk.LN2, h))
		x = tensor.Add(h, f)
	}

	for _, r := range runs {
		r.Cache.Len += r.Rows
	}
	if total == 0 {
		return nil
	}
	return InferLinear(g.Head, InferLayerNorm(g.FinalLN, x))
}

// inferAttention runs cached causal attention for one block: the new
// rows' K/V are appended to each run's cache for layer bi, then every
// new row attends over its full prefix (cached rows plus the new rows
// at or before it).
func (g *GPT) inferAttention(blk *TransformerBlock, bi int, x *tensor.Tensor, runs []InferRun) *tensor.Tensor {
	at := blk.Attn
	d, nh, hd := at.Dim, at.Heads, at.HeadDim
	q := InferLinear(at.QProj, x)
	kNew := InferLinear(at.KProj, x)
	vNew := InferLinear(at.VProj, x)
	scale := float32(1 / math.Sqrt(float64(hd)))

	ctx := tensor.New(x.Shape[0], d)
	// One scores buffer for the whole call, cut to each row's prefix.
	maxPrefix := 0
	for _, r := range runs {
		maxPrefix = max(maxPrefix, r.Cache.Len+r.Rows)
	}
	scoreBuf := make([]float32, maxPrefix)
	row := 0
	for _, r := range runs {
		base := r.Cache.Len
		kT, vc := r.Cache.kT[bi].Data, r.Cache.v[bi]
		maxLen := r.Cache.MaxLen
		for i := 0; i < r.Rows; i++ {
			for c, kv := range kNew.Row(row + i) {
				kT[c*maxLen+base+i] = kv
			}
			copy(vc.Row(base+i), vNew.Row(row+i))
		}
		for i := 0; i < r.Rows; i++ {
			n := base + i + 1 // prefix length this row attends over
			qr := q.Row(row)
			or := ctx.Row(row)
			for h := 0; h < nh; h++ {
				// scores[t] = q_h·k_h[t], each summed from zero over
				// the head dimension in order.
				scores := scoreBuf[:n]
				clear(scores)
				tensor.AxpyN(scores, qr[h*hd:(h+1)*hd], 1, kT[h*hd*maxLen:], maxLen, hd, false)
				for t := range scores {
					scores[t] *= scale
				}
				tensor.SoftmaxRow(scores, scores)
				tensor.AxpyN(or[h*hd:(h+1)*hd], scores, 1, vc.Data[h*hd:], d, n, false)
			}
			row++
		}
	}
	return InferLinear(at.OProj, ctx)
}

// SampleToken samples from a logits row: greedy argmax when
// temperature <= 0 or r is nil, otherwise one draw from the
// temperature-scaled softmax. Exported for the serving engine.
func SampleToken(logits []float32, temperature float32, r *tensor.RNG) int {
	return sampleToken(logits, temperature, r)
}

// GenerateKV continues a prompt for n tokens through the KV-cache
// decode path: one prefill step over the prompt, then one single-row
// decode step per emitted token. prompt length + n must fit the
// context window. Returns prompt plus generated tokens.
func (g *GPT) GenerateKV(prompt []int, n int, temperature float32, r *tensor.RNG) []int {
	if len(prompt)+n > g.Cfg.SeqLen {
		panic(fmt.Sprintf("nn: GenerateKV %d+%d exceeds context %d", len(prompt), n, g.Cfg.SeqLen))
	}
	out := append([]int(nil), prompt...)
	cache := g.NewKVCache()
	logits := g.InferStep(out, []InferRun{{Cache: cache, Rows: len(out)}})
	for i := 0; i < n; i++ {
		next := sampleToken(logits.Row(logits.Shape[0]-1), temperature, r)
		out = append(out, next)
		if i == n-1 {
			break
		}
		logits = g.InferStep([]int{next}, []InferRun{{Cache: cache, Rows: 1}})
	}
	return out
}

// GenerateReforward is the reference decode loop: every emitted token
// re-forwards the entire prefix through a fresh KV cache (equivalent
// to inference with caching disabled). It exists to pin down
// GenerateKV's correctness — both paths share the same batch-invariant
// kernels, so greedy outputs must match bit-exactly.
func (g *GPT) GenerateReforward(prompt []int, n int, temperature float32, r *tensor.RNG) []int {
	if len(prompt)+n > g.Cfg.SeqLen {
		panic(fmt.Sprintf("nn: GenerateReforward %d+%d exceeds context %d", len(prompt), n, g.Cfg.SeqLen))
	}
	out := append([]int(nil), prompt...)
	for i := 0; i < n; i++ {
		cache := g.NewKVCache()
		logits := g.InferStep(out, []InferRun{{Cache: cache, Rows: len(out)}})
		out = append(out, sampleToken(logits.Row(logits.Shape[0]-1), temperature, r))
	}
	return out
}
