package nn

import (
	"math"
	"testing"

	"bagualu/internal/tensor"
)

// sumLoss is the test loss: sum(out * weights), giving every output
// element a distinct gradient.
func sumLoss(out, w *tensor.Tensor) float32 {
	return tensor.Dot(out, w)
}

// numCheck verifies the analytic gradient of every listed parameter
// (and the input gradient) of layer against central differences.
func numCheck(t *testing.T, name string, x *tensor.Tensor, forward func() *tensor.Tensor, backward func(dout *tensor.Tensor) *tensor.Tensor, params []*Param, tol float64) {
	t.Helper()
	r := tensor.NewRNG(777)
	out := forward()
	w := tensor.Randn(r, 1, out.Shape...)

	// Analytic gradients.
	ZeroGrads(params)
	dx := backward(w.Clone())

	eval := func() float32 { return sumLoss(forward(), w) }

	const h = 1e-2
	check := func(label string, data []float32, grad []float32) {
		for i := range data {
			orig := data[i]
			data[i] = orig + h
			fp := float64(eval())
			data[i] = orig - h
			fm := float64(eval())
			data[i] = orig
			num := (fp - fm) / (2 * h)
			if math.Abs(num-float64(grad[i])) > tol*math.Max(1, math.Abs(num)) {
				t.Fatalf("%s/%s grad[%d] = %v, numeric %v", name, label, i, grad[i], num)
			}
		}
	}
	check("input", x.Data, dx.Data)
	for _, p := range params {
		check(p.Name, p.W.Data, p.G.Data)
	}
}

func TestLinearForward(t *testing.T) {
	r := tensor.NewRNG(1)
	l := NewLinear("l", r, 3, 2, true)
	l.Bias.W.Data[0] = 10
	x := tensor.Ones(1, 3)
	out := l.Forward(x)
	want := l.Weight.W.At(0, 0) + l.Weight.W.At(1, 0) + l.Weight.W.At(2, 0) + 10
	if math.Abs(float64(out.At(0, 0)-want)) > 1e-5 {
		t.Fatalf("Linear forward = %v, want %v", out.At(0, 0), want)
	}
}

func TestLinearGradNumeric(t *testing.T) {
	r := tensor.NewRNG(2)
	l := NewLinear("lin", r, 4, 3, true)
	x := tensor.Randn(r, 1, 5, 4)
	numCheck(t, "Linear", x,
		func() *tensor.Tensor { return l.Forward(x) },
		l.Backward, l.Params(), 1e-2)
}

func TestLinearNoBias(t *testing.T) {
	r := tensor.NewRNG(3)
	l := NewLinear("lin", r, 3, 3, false)
	if len(l.Params()) != 1 {
		t.Fatal("no-bias linear must expose one param")
	}
	x := tensor.Randn(r, 1, 2, 3)
	numCheck(t, "LinearNoBias", x,
		func() *tensor.Tensor { return l.Forward(x) },
		l.Backward, l.Params(), 1e-2)
}

func TestLayerNormGradNumeric(t *testing.T) {
	r := tensor.NewRNG(4)
	l := NewLayerNorm("ln", 6)
	// Non-trivial gamma/beta.
	for i := range l.Gamma.W.Data {
		l.Gamma.W.Data[i] = 0.5 + float32(i)*0.2
		l.Beta.W.Data[i] = float32(i) * 0.1
	}
	x := tensor.Randn(r, 1, 4, 6)
	numCheck(t, "LayerNorm", x,
		func() *tensor.Tensor { return l.Forward(x) },
		l.Backward, l.Params(), 5e-2)
}

func TestFeedForwardGradNumeric(t *testing.T) {
	r := tensor.NewRNG(5)
	f := NewFeedForward("ffn", r, 4, 8)
	x := tensor.Randn(r, 1, 3, 4)
	numCheck(t, "FFN", x,
		func() *tensor.Tensor { return f.Forward(x) },
		f.Backward, f.Params(), 2e-2)
}

func TestAttentionGradNumeric(t *testing.T) {
	r := tensor.NewRNG(6)
	m := NewMultiHeadAttention("attn", r, 4, 2, 3)
	x := tensor.Randn(r, 1, 6, 4) // batch 2, seq 3
	numCheck(t, "MHA", x,
		func() *tensor.Tensor { return m.Forward(x) },
		m.Backward, m.Params(), 5e-2)
}

func TestTransformerBlockGradNumeric(t *testing.T) {
	r := tensor.NewRNG(7)
	b := NewTransformerBlock("blk", r, 4, 2, 3, 8)
	x := tensor.Randn(r, 1, 6, 4)
	numCheck(t, "Block", x,
		func() *tensor.Tensor { return b.Forward(x) },
		b.Backward, b.Params(), 8e-2)
}

func TestAttentionCausality(t *testing.T) {
	// Changing a future token must not change earlier outputs.
	r := tensor.NewRNG(8)
	m := NewMultiHeadAttention("attn", r, 8, 2, 4)
	x := tensor.Randn(r, 1, 4, 8) // batch 1, seq 4
	out1 := m.Forward(x).Clone()
	x2 := x.Clone()
	for j := 0; j < 8; j++ {
		x2.Set(x2.At(3, j)+5, 3, j) // perturb last position
	}
	out2 := m.Forward(x2)
	for ti := 0; ti < 3; ti++ {
		for j := 0; j < 8; j++ {
			if math.Abs(float64(out1.At(ti, j)-out2.At(ti, j))) > 1e-5 {
				t.Fatalf("position %d leaked future information", ti)
			}
		}
	}
	// ...but the perturbed position itself must change.
	changed := false
	for j := 0; j < 8; j++ {
		if out1.At(3, j) != out2.At(3, j) {
			changed = true
		}
	}
	if !changed {
		t.Fatal("perturbation had no effect at its own position")
	}
}

func TestAttentionMatchesAutogradSoftmax(t *testing.T) {
	// The attention probabilities must be a valid distribution over
	// the causal prefix.
	r := tensor.NewRNG(9)
	m := NewMultiHeadAttention("attn", r, 4, 1, 5)
	x := tensor.Randn(r, 1, 5, 4)
	m.Forward(x)
	for ti := 0; ti < 5; ti++ {
		var sum float64
		for tj := 0; tj < 5; tj++ {
			p := float64(m.probs.At(0, ti, tj))
			if tj > ti && p != 0 {
				t.Fatalf("future weight probs[%d,%d] = %v", ti, tj, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d probs sum to %v", ti, sum)
		}
	}
}

func TestSoftmaxCrossEntropyMatchesAutograd(t *testing.T) {
	r := tensor.NewRNG(10)
	logits := tensor.Randn(r, 1, 4, 7)
	targets := []int{1, 3, 0, 6}

	var l SoftmaxCrossEntropy
	loss := l.Forward(logits, targets)
	dl := l.Backward()

	g := NewGraph()
	lg := g.Param(logits.Clone())
	agLoss := g.CrossEntropy(lg, targets)
	g.Backward(agLoss)

	if math.Abs(float64(loss-agLoss.Value.Data[0])) > 1e-5 {
		t.Fatalf("loss %v vs autograd %v", loss, agLoss.Value.Data[0])
	}
	if !dl.AllClose(lg.Grad, 1e-5) {
		t.Fatal("cross-entropy gradients differ from autograd")
	}
}

func TestEmbeddingRoundTrip(t *testing.T) {
	r := tensor.NewRNG(11)
	e := NewEmbedding("emb", r, 10, 4)
	ids := []int{3, 3, 9, 0}
	out := e.ForwardIDs(ids)
	if out.Shape[0] != 4 || out.Shape[1] != 4 {
		t.Fatalf("shape %v", out.Shape)
	}
	dout := tensor.Ones(4, 4)
	e.BackwardIDs(dout)
	if e.Table.G.At(3, 0) != 2 || e.Table.G.At(9, 0) != 1 || e.Table.G.At(1, 0) != 0 {
		t.Fatal("embedding grads wrong")
	}
}

func TestGPTConfigValidate(t *testing.T) {
	good := GPTConfig{Vocab: 10, Dim: 8, Heads: 2, Layers: 1, SeqLen: 4, FFNHidden: 16}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Heads = 3
	if err := bad.Validate(); err == nil {
		t.Fatal("indivisible heads accepted")
	}
	bad = good
	bad.Layers = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero layers accepted")
	}
}

func TestGPTForwardShapesAndParamCount(t *testing.T) {
	r := tensor.NewRNG(12)
	cfg := GPTConfig{Vocab: 17, Dim: 8, Heads: 2, Layers: 2, SeqLen: 4, FFNHidden: 16}
	g := NewGPT(cfg, r, nil)
	ids := []int{1, 2, 3, 4, 5, 6, 7, 8} // batch 2
	logits := g.Forward(ids)
	if logits.Shape[0] != 8 || logits.Shape[1] != 17 {
		t.Fatalf("logits shape %v", logits.Shape)
	}
	// Parameter count must match the analytic formula.
	want := 17*8 + 4*8 // embeddings
	perBlock := 2*8 /* ln */ + 4*(8*8+8) /* qkvo */ + 2*8 /* ln */ + (8*16 + 16 + 16*8 + 8)
	want += 2*perBlock + 2*8 /* final ln */ + 8*17
	if got := g.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
}

func TestGPTTrainsOnCopyTask(t *testing.T) {
	// Predict the previous token (trivially learnable pattern).
	r := tensor.NewRNG(13)
	cfg := GPTConfig{Vocab: 8, Dim: 16, Heads: 2, Layers: 1, SeqLen: 8, FFNHidden: 32}
	g := NewGPT(cfg, r, nil)
	params := g.Params()

	data := tensor.NewRNG(99)
	var first, last float32
	for step := 0; step < 80; step++ {
		ids := make([]int, 2*cfg.SeqLen)
		targets := make([]int, len(ids))
		for b := 0; b < 2; b++ {
			for s := 0; s < cfg.SeqLen; s++ {
				i := b*cfg.SeqLen + s
				ids[i] = data.Intn(cfg.Vocab)
				if s == 0 {
					targets[i] = ids[i]
				} else {
					targets[i] = ids[i-1]
				}
			}
		}
		logits := g.Forward(ids)
		var loss SoftmaxCrossEntropy
		lv := loss.Forward(logits, targets)
		if step == 0 {
			first = lv
		}
		last = lv
		ZeroGrads(params)
		g.Backward(loss.Backward())
		for _, p := range params {
			tensor.AXPY(-0.1, p.G, p.W)
		}
	}
	if last >= first*0.8 {
		t.Fatalf("GPT loss did not drop: first %v, last %v", first, last)
	}
}

func TestGPTGradNumericSpotCheck(t *testing.T) {
	// Full-model gradient check on a few random parameters.
	r := tensor.NewRNG(14)
	cfg := GPTConfig{Vocab: 6, Dim: 8, Heads: 2, Layers: 1, SeqLen: 3, FFNHidden: 8}
	g := NewGPT(cfg, r, nil)
	ids := []int{1, 2, 3, 4, 5, 0}
	targets := []int{2, 3, 4, 5, 0, 1}

	eval := func() float32 {
		var l SoftmaxCrossEntropy
		return l.Forward(g.Forward(ids), targets)
	}
	params := g.Params()
	ZeroGrads(params)
	var l SoftmaxCrossEntropy
	l.Forward(g.Forward(ids), targets)
	g.Backward(l.Backward())

	pick := tensor.NewRNG(15)
	const h = 1e-2
	for trial := 0; trial < 30; trial++ {
		p := params[pick.Intn(len(params))]
		i := pick.Intn(p.W.Len())
		orig := p.W.Data[i]
		p.W.Data[i] = orig + h
		fp := float64(eval())
		p.W.Data[i] = orig - h
		fm := float64(eval())
		p.W.Data[i] = orig
		num := (fp - fm) / (2 * h)
		got := float64(p.G.Data[i])
		if math.Abs(num-got) > 0.1*math.Max(0.5, math.Abs(num)) {
			t.Fatalf("%s grad[%d] = %v, numeric %v", p.Name, i, got, num)
		}
	}
}

func BenchmarkTransformerBlockForward(b *testing.B) {
	r := tensor.NewRNG(1)
	blk := NewTransformerBlock("blk", r, 128, 4, 64, 512)
	x := tensor.Randn(r, 1, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.Forward(x)
	}
}

func BenchmarkTransformerBlockBackward(b *testing.B) {
	r := tensor.NewRNG(1)
	blk := NewTransformerBlock("blk", r, 128, 4, 64, 512)
	x := tensor.Randn(r, 1, 128, 128)
	out := blk.Forward(x)
	dout := tensor.Ones(out.Shape...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk.Backward(dout)
	}
}
