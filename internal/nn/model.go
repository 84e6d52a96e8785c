package nn

import (
	"fmt"
	"math"
	"slices"

	"bagualu/internal/tensor"
)

// SoftmaxCrossEntropy is the standard language-modeling loss: mean
// NLL of integer targets under a row-wise softmax.
type SoftmaxCrossEntropy struct {
	probs   *tensor.Tensor
	targets []int
}

// Forward returns the mean loss over rows.
func (l *SoftmaxCrossEntropy) Forward(logits *tensor.Tensor, targets []int) float32 {
	if logits.Shape[0] != len(targets) {
		panic(fmt.Sprintf("nn: %d targets for %d logit rows", len(targets), logits.Shape[0]))
	}
	l.probs = tensor.SoftmaxRows(logits)
	l.targets = targets
	var loss float64
	for i, t := range targets {
		p := float64(l.probs.At(i, t))
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
	}
	return float32(loss / float64(len(targets)))
}

// Backward returns d(loss)/d(logits).
func (l *SoftmaxCrossEntropy) Backward() *tensor.Tensor {
	d := tensor.New(l.probs.Shape...)
	d.CopyFrom(l.probs)
	scale := 1 / float32(len(l.targets))
	for i, t := range l.targets {
		d.Set(d.At(i, t)-1, i, t)
	}
	tensor.ScaleInPlace(d, scale)
	return d
}

// GPTConfig describes a decoder-only transformer LM.
type GPTConfig struct {
	Vocab     int
	Dim       int
	Heads     int
	Layers    int
	SeqLen    int
	FFNHidden int
}

// Validate checks the configuration.
func (c GPTConfig) Validate() error {
	switch {
	case c.Vocab <= 0 || c.Dim <= 0 || c.Heads <= 0 || c.Layers <= 0 || c.SeqLen <= 0 || c.FFNHidden <= 0:
		return fmt.Errorf("nn: non-positive GPT config %+v", c)
	case c.Dim%c.Heads != 0:
		return fmt.Errorf("nn: dim %d not divisible by heads %d", c.Dim, c.Heads)
	}
	return nil
}

// FFNFactory builds the feed-forward slot of block i; returning a MoE
// layer here is how the BaGuaLu model is assembled.
type FFNFactory func(block int, name string, r *tensor.RNG) Layer

// GPT is a decoder-only transformer language model operating on
// flattened [batch*seq] token id slices.
type GPT struct {
	Cfg      GPTConfig
	TokEmbed *Embedding
	PosEmbed *Param
	Blocks   []*TransformerBlock
	FinalLN  *LayerNorm
	Head     *Linear

	// RecomputePolicy selects per block whether that block runs under
	// activation checkpointing: a marked block keeps only its input
	// through its forward, frees its caches, and is re-run during
	// backward to regenerate them. This is the paper's memory strategy —
	// at brain scale, storing every intermediate activation is
	// impossible — traded for up to 1/3 more compute. Gradients are
	// bit-identical either way (tested). Requires deterministic layers:
	// disable MoE gate noise, which would re-randomize routing on the
	// recompute pass. nil marks no block; otherwise it has one entry per
	// block.
	RecomputePolicy []bool

	pass Pass // Forward's, for Backward
}

// recomputes reports whether block i runs under activation
// checkpointing.
func (g *GPT) recomputes(i int) bool {
	return g.RecomputePolicy != nil && g.RecomputePolicy[i]
}

// A Pass is what one forward pass over a run of blocks left for its
// backward. A block the recompute policy marks keeps only its input
// and replays its forward in BackwardPass. Any other block keeps its
// caches: in its layers while the pass is the only one in flight (as
// in Forward), or moved out into the Pass by Stash while other passes
// run (as in a pipeline). A backward split by BackwardInput leaves its
// weight-gradient products in the Pass for BackwardWeights.
type Pass struct {
	lo     int
	blocks []blockPass
	ids    []int      // the embedding's, stashed when the run starts the model
	head   *normStash // the final norm's, stashed when the run ends the model
	wgrads WeightGrads
}

type blockPass struct {
	in *tensor.Tensor // a marked block's input
	st *blockStash    // an unmarked block's caches, once stashed
}

// Replays returns how many of the pass's blocks replay their forward.
func (p *Pass) Replays() int {
	n := 0
	for _, b := range p.blocks {
		if b.in != nil {
			n++
		}
	}
	return n
}

// startsModel and endsModel report whether the pass's run of blocks
// is preceded by the embedding or followed by the head.
func (g *GPT) startsModel(p *Pass) bool { return p.lo == 0 }
func (g *GPT) endsModel(p *Pass) bool   { return p.lo+len(p.blocks) == len(g.Blocks) }

// ForwardBlocks runs blocks [lo, hi) on x, recording the pass in p:
// a block the recompute policy marks keeps its input and frees its
// caches, any other block leaves its caches in its layers.
func (g *GPT) ForwardBlocks(p *Pass, lo, hi int, x *tensor.Tensor) *tensor.Tensor {
	p.lo, p.blocks = lo, p.blocks[:0]
	for i := lo; i < hi; i++ {
		var bp blockPass
		if g.recomputes(i) {
			bp.in = x
		}
		x = g.Blocks[i].Forward(x)
		if bp.in != nil {
			g.Blocks[i].forget()
		}
		p.blocks = append(p.blocks, bp)
	}
	return x
}

// Stash moves the caches the pass left in the layers out into p, so
// another pass can run: those of its unmarked blocks, plus the
// embedding's when the run starts the model and the final norm's and
// head's when it ends it (the runner ran those around ForwardBlocks).
func (g *GPT) Stash(p *Pass) {
	for i := range p.blocks {
		if p.blocks[i].in == nil {
			p.blocks[i].st = g.Blocks[p.lo+i].stash()
		}
	}
	if g.startsModel(p) {
		p.ids, g.TokEmbed.ids = g.TokEmbed.ids, nil
	}
	if g.endsModel(p) {
		st := g.FinalLN.stash()
		p.head = &st
		g.Head.Forget()
	}
}

// A Unit is a stretch of the backward whose gradients it makes final
// together: the head (final norm and LM head), a block, a block's
// experts, or the embeddings. Units lists them; BackwardPass reports
// each, by ID, as it finishes it.
type Unit struct {
	ID      int  // the name BackwardPass reports (see EmbedUnit)
	Block   int  // a block or expert unit's block; -1 for the head and the embeddings
	Experts bool // the block's expert parameters, finished inside its FFN's backward
	Params  []*Param
}

// EmbedUnit is the embeddings' unit ID. Block i's is i, its experts'
// len(Blocks)+1+i and the head's len(Blocks).
const EmbedUnit = -1

func (g *GPT) headUnit() int        { return len(g.Blocks) }
func (g *GPT) expertUnit(i int) int { return len(g.Blocks) + 1 + i }

// An ExpertReporter is an FFN layer whose backward makes its experts'
// gradients — those of its ShardedParams — final before it returns,
// ahead of the rest of its block. ReportExperts(report, unit) arms its
// next backward to call report(unit) once, at that moment.
type ExpertReporter interface {
	ShardedParams() []*Param
	ReportExperts(report func(unit int), unit int)
}

// Units returns the units of blocks [lo, hi) in the order a backward
// through them finishes them: the head when the run ends the model,
// then from the last block to the first its experts — when its FFN is
// an ExpertReporter — and the block, then the embeddings when the run
// starts the model. Each parameter of the run is in exactly one unit:
// an expert unit holds its FFN's ShardedParams, its block the rest.
func (g *GPT) Units(lo, hi int) []Unit {
	var us []Unit
	if hi == len(g.Blocks) {
		us = append(us, Unit{ID: g.headUnit(), Block: -1, Params: append(g.FinalLN.Params(), g.Head.Params()...)})
	}
	for i := hi - 1; i >= lo; i-- {
		ps := g.Blocks[i].Params()
		if er, ok := g.Blocks[i].FFN.(ExpertReporter); ok {
			ex := er.ShardedParams()
			us = append(us, Unit{ID: g.expertUnit(i), Block: i, Experts: true, Params: ex})
			ps = slices.DeleteFunc(ps, func(p *Param) bool { return slices.Contains(ex, p) })
		}
		us = append(us, Unit{ID: i, Block: i, Params: ps})
	}
	if lo == 0 {
		us = append(us, Unit{ID: EmbedUnit, Block: -1, Params: []*Param{g.TokEmbed.Table, g.PosEmbed}})
	}
	return us
}

// BackwardPass propagates d back through everything pass p ran — the
// head first when the run ends the model (d is then the logits
// gradient), each block after restoring or replaying it, and the
// embeddings when the run starts the model — and returns the gradient
// flowing into the run's first block. finished, when non-nil, is called
// with each unit's ID as soon as its gradients are added, in the order
// Units lists the run's units: a block's expert unit from inside its
// FFN's backward. p is empty afterwards.
func (g *GPT) BackwardPass(p *Pass, d *tensor.Tensor, finished func(unit int)) *tensor.Tensor {
	return g.backward(p, d, nil, finished)
}

// BackwardInput is BackwardPass with every weight-gradient product
// recorded in p instead of run (see WeightGrads): the input gradient
// is ready without them. p, and the tensors the products read — d
// included — must stay untouched until BackwardWeights(p) runs them.
func (g *GPT) BackwardInput(p *Pass, d *tensor.Tensor) *tensor.Tensor {
	return g.backward(p, d, &p.wgrads, nil)
}

// BackwardWeights runs the weight-gradient products BackwardInput
// recorded in p, in the order it recorded them. p is empty afterwards.
func (g *GPT) BackwardWeights(p *Pass) { p.wgrads.Run() }

func (g *GPT) backward(p *Pass, d *tensor.Tensor, wg *WeightGrads, finished func(int)) *tensor.Tensor {
	if wg != nil {
		g.deferWeightGrads(p, wg)
	}
	if finished == nil {
		finished = func(int) {}
	}
	if g.endsModel(p) {
		if p.head != nil {
			g.Head.Restore(g.FinalLN.restore(*p.head))
			p.head = nil
		}
		d = g.FinalLN.Backward(g.Head.Backward(d))
		finished(g.headUnit())
	}
	for i := len(p.blocks) - 1; i >= 0; i-- {
		b, bp := g.Blocks[p.lo+i], p.blocks[i]
		switch {
		case bp.in != nil:
			b.Forward(bp.in)
		case bp.st != nil:
			b.restore(bp.st)
		}
		if er, ok := b.FFN.(ExpertReporter); ok {
			er.ReportExperts(finished, g.expertUnit(p.lo+i))
		}
		d = b.Backward(d)
		finished(p.lo + i)
	}
	if g.startsModel(p) {
		if p.ids != nil {
			g.TokEmbed.ids, p.ids = p.ids, nil
		}
		g.embedBackward(d)
		finished(EmbedUnit)
	}
	if wg != nil {
		g.deferWeightGrads(p, nil)
	}
	clear(p.blocks)
	p.blocks = p.blocks[:0]
	return d
}

// deferWeightGrads points the weight-gradient products of every layer
// pass p ran at w, the head's included when the run ends the model.
func (g *GPT) deferWeightGrads(p *Pass, w *WeightGrads) {
	for _, b := range g.Blocks[p.lo : p.lo+len(p.blocks)] {
		b.deferWeightGrads(w)
	}
	if g.endsModel(p) {
		g.Head.DeferWeightGrads(w)
	}
}

// NewGPT constructs the model. ffn may be nil for dense FFN blocks.
func NewGPT(cfg GPTConfig, r *tensor.RNG, ffn FFNFactory) *GPT {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	g := &GPT{
		Cfg:      cfg,
		TokEmbed: NewEmbedding("tok_embed", r, cfg.Vocab, cfg.Dim),
		PosEmbed: NewParam("pos_embed", tensor.Randn(r, 0.02, cfg.SeqLen, cfg.Dim)),
		FinalLN:  NewLayerNorm("final_ln", cfg.Dim),
		Head:     NewLinear("lm_head", r, cfg.Dim, cfg.Vocab, false),
	}
	for i := 0; i < cfg.Layers; i++ {
		name := fmt.Sprintf("block%d", i)
		b := NewTransformerBlock(name, r, cfg.Dim, cfg.Heads, cfg.SeqLen, cfg.FFNHidden)
		if ffn != nil {
			b.FFN = ffn(i, name+".moe", r)
		}
		g.Blocks = append(g.Blocks, b)
	}
	return g
}

// EmbedForward runs the model's input segment: token embedding plus
// positional embeddings. The pipeline runner calls it directly on the
// first stage; Forward goes through it too, so both paths are
// bit-identical.
func (g *GPT) EmbedForward(ids []int) *tensor.Tensor {
	if len(ids)%g.Cfg.SeqLen != 0 {
		panic(fmt.Sprintf("nn: %d ids not a multiple of seq len %d", len(ids), g.Cfg.SeqLen))
	}
	x := g.TokEmbed.ForwardIDs(ids)
	// Add positional embeddings per sequence position.
	for i := range ids {
		pos := i % g.Cfg.SeqLen
		row := x.Row(i)
		p := g.PosEmbed.W.Row(pos)
		for j := range row {
			row[j] += p[j]
		}
	}
	return x
}

// embedBackward accumulates the input segment's gradients from dx,
// the gradient flowing into the first block.
func (g *GPT) embedBackward(dx *tensor.Tensor) {
	rows := dx.Shape[0]
	for i := 0; i < rows; i++ {
		pos := i % g.Cfg.SeqLen
		prow := g.PosEmbed.G.Row(pos)
		drow := dx.Row(i)
		for j := range prow {
			prow[j] += drow[j]
		}
	}
	g.TokEmbed.BackwardIDs(dx)
}

// HeadForward runs the model's output segment: final layer norm and
// LM head projection to logits.
func (g *GPT) HeadForward(x *tensor.Tensor) *tensor.Tensor {
	return g.Head.Forward(g.FinalLN.Forward(x))
}

// Forward maps token ids (length batch*seq) to logits
// [batch*seq, vocab].
func (g *GPT) Forward(ids []int) *tensor.Tensor {
	x := g.EmbedForward(ids)
	return g.HeadForward(g.ForwardBlocks(&g.pass, 0, len(g.Blocks), x))
}

// Backward propagates d(loss)/d(logits) through the model,
// accumulating all parameter gradients.
func (g *GPT) Backward(dlogits *tensor.Tensor) {
	g.BackwardPass(&g.pass, dlogits, nil)
}

// Generate extends prompt by n tokens using temperature sampling
// (temperature 0 = greedy). The model attends over a sliding window
// of the last SeqLen tokens, left-padded with token 0 for short
// prompts.
func (g *GPT) Generate(prompt []int, n int, temperature float32, r *tensor.RNG) []int {
	out := append([]int(nil), prompt...)
	s := g.Cfg.SeqLen
	for step := 0; step < n; step++ {
		// Build the window and remember where the last real token
		// sits.
		window := make([]int, s)
		start := len(out) - s
		pos := s - 1
		if start < 0 {
			copy(window[-start:], out)
			pos = -start + len(out) - 1
			start = 0
		} else {
			copy(window, out[start:])
		}
		logits := g.Forward(window)
		row := logits.Row(pos)
		next := SampleToken(row, temperature, r)
		out = append(out, next)
	}
	return out
}

// SampleToken samples from a logits row: greedy argmax when
// temperature <= 0 or r is nil, otherwise one draw from the
// temperature-scaled softmax.
func SampleToken(logits []float32, temperature float32, r *tensor.RNG) int {
	if temperature <= 0 || r == nil {
		best, bi := logits[0], 0
		for i, v := range logits[1:] {
			if v > best {
				best, bi = v, i+1
			}
		}
		return bi
	}
	scaled := make([]float32, len(logits))
	for i, v := range logits {
		scaled[i] = v / temperature
	}
	probs := tensor.SoftmaxRows(tensor.FromSlice(scaled, 1, len(scaled)))
	u := r.Float32()
	var acc float32
	for i, p := range probs.Data {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(logits) - 1
}

// Params returns every trainable parameter of the model.
func (g *GPT) Params() []*Param {
	ps := []*Param{g.TokEmbed.Table, g.PosEmbed}
	for _, b := range g.Blocks {
		ps = append(ps, b.Params()...)
	}
	ps = append(ps, g.FinalLN.Params()...)
	ps = append(ps, g.Head.Params()...)
	return ps
}

// NumParams returns the total trainable parameter count.
func (g *GPT) NumParams() int { return NumParams(g.Params()) }
