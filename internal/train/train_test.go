package train

import (
	"math"
	"testing"

	"bagualu/internal/data"
	"bagualu/internal/half"
	"bagualu/internal/nn"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
)

// quadParam builds a parameter whose loss is 0.5*||w - target||².
func quadParam(vals ...float32) *nn.Param {
	return nn.NewParam("w", tensor.FromSlice(vals, len(vals)))
}

func quadGrad(p *nn.Param, target []float32) {
	for i := range p.W.Data {
		p.G.Data[i] = p.W.Data[i] - target[i]
	}
}

func TestSGDConverges(t *testing.T) {
	p := quadParam(5, -3)
	target := []float32{1, 2}
	opt := NewSGD(0)
	for i := 0; i < 100; i++ {
		quadGrad(p, target)
		opt.Step([]*nn.Param{p}, 0.3)
	}
	if math.Abs(float64(p.W.Data[0]-1)) > 1e-3 || math.Abs(float64(p.W.Data[1]-2)) > 1e-3 {
		t.Fatalf("SGD did not converge: %v", p.W.Data)
	}
}

func TestSGDMomentumFasterOnIllConditioned(t *testing.T) {
	// Momentum must not diverge and should reach the target.
	p := quadParam(10)
	opt := NewSGD(0.9)
	for i := 0; i < 300; i++ {
		quadGrad(p, []float32{0})
		opt.Step([]*nn.Param{p}, 0.05)
	}
	if math.Abs(float64(p.W.Data[0])) > 1e-2 {
		t.Fatalf("momentum SGD did not converge: %v", p.W.Data[0])
	}
}

func TestAdamConverges(t *testing.T) {
	p := quadParam(5, -3, 100)
	target := []float32{1, 2, -7}
	opt := NewAdam(0)
	for i := 0; i < 5000; i++ {
		quadGrad(p, target)
		opt.Step([]*nn.Param{p}, 0.05)
	}
	for i, want := range target {
		if math.Abs(float64(p.W.Data[i]-want)) > 0.15 {
			t.Fatalf("Adam did not converge: %v", p.W.Data)
		}
	}
	if opt.StepCount() != 5000 {
		t.Fatalf("StepCount = %d", opt.StepCount())
	}
}

func TestAdamWeightDecayShrinksWeights(t *testing.T) {
	// With zero gradient, AdamW decay must shrink the weight.
	p := quadParam(4)
	opt := NewAdam(0.1)
	for i := 0; i < 50; i++ {
		p.G.Zero()
		opt.Step([]*nn.Param{p}, 0.1)
	}
	if p.W.Data[0] >= 4 {
		t.Fatalf("weight decay had no effect: %v", p.W.Data[0])
	}
}

func TestWarmupCosineShape(t *testing.T) {
	s := WarmupCosine{Peak: 1, Floor: 0.1, Warmup: 10, Total: 110}
	if s.LR(0) >= s.LR(9) {
		t.Fatal("warmup not increasing")
	}
	if math.Abs(float64(s.LR(10)-1)) > 0.1 {
		t.Fatalf("LR at end of warmup = %v", s.LR(10))
	}
	if s.LR(60) >= s.LR(10) || s.LR(60) <= s.LR(109) {
		t.Fatal("cosine not decreasing")
	}
	if s.LR(200) != 0.1 {
		t.Fatalf("LR after total = %v, want floor", s.LR(200))
	}
}

func TestClipGradNorm(t *testing.T) {
	p := quadParam(3, 4) // grad norm 5 after quadGrad with target 0
	quadGrad(p, []float32{0, 0})
	pre := ClipGradNorm([]*nn.Param{p}, 1)
	if math.Abs(float64(pre-5)) > 1e-5 {
		t.Fatalf("pre-clip norm %v", pre)
	}
	if math.Abs(float64(GlobalGradNorm([]*nn.Param{p})-1)) > 1e-5 {
		t.Fatalf("post-clip norm %v", GlobalGradNorm([]*nn.Param{p}))
	}
	// No-op when under the limit.
	quadGrad(p, []float32{2.9, 4})
	pre = ClipGradNorm([]*nn.Param{p}, 10)
	post := GlobalGradNorm([]*nn.Param{p})
	if math.Abs(float64(pre-post)) > 1e-6 {
		t.Fatal("clip modified in-range gradients")
	}
}

func TestMixedPrecisionOverflowSkipsAndHalves(t *testing.T) {
	p := quadParam(1)
	mp := NewMixedPrecision(sunway.Mixed, []*nn.Param{p})
	mp.Scale = 1024
	p.G.Data[0] = 1e7 // overflows FP16
	mp.PrepareGrads([]*nn.Param{p})
	if !mp.Overflowed(GlobalGradNorm([]*nn.Param{p})) {
		t.Fatal("overflow not detected")
	}
	if mp.Scale != 512 {
		t.Fatalf("scale = %v, want 512", mp.Scale)
	}
	if mp.SkippedSteps() != 1 {
		t.Fatalf("skipped = %d", mp.SkippedSteps())
	}
}

// TestOverflowedSkipsNonFinite: a low-precision mode skips on a NaN or
// Inf gradient norm, and only FP16 loss scaling halves its scale; FP32
// never skips.
func TestOverflowedSkipsNonFinite(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	for _, c := range []struct {
		mode       sunway.Precision
		norm       float32
		skip       bool
		scaleAfter float32
	}{
		{sunway.Mixed, 3, false, 1024},
		{sunway.Mixed, nan, true, 512},
		{sunway.FP16, inf, true, 512},
		{sunway.BF16, inf, true, 1024},
		{sunway.BF16, nan, true, 1024},
		{sunway.FP32, nan, false, 1024},
	} {
		mp := NewMixedPrecision(c.mode, []*nn.Param{quadParam(1)})
		if got := mp.Overflowed(c.norm); got != c.skip || mp.Scale != c.scaleAfter || mp.SkippedSteps() != map[bool]int{false: 0, true: 1}[c.skip] {
			t.Fatalf("%v norm %v: skip %v scale %v skipped %d, want skip %v scale %v",
				c.mode, c.norm, got, mp.Scale, mp.SkippedSteps(), c.skip, c.scaleAfter)
		}
	}
}

func TestMixedPrecisionGrowth(t *testing.T) {
	p := quadParam(1)
	mp := NewMixedPrecision(sunway.Mixed, []*nn.Param{p})
	mp.Scale = 4
	mp.GrowthInterval = 3
	opt := NewSGD(0)
	for i := 0; i < 3; i++ {
		p.G.Data[0] = 4 // pretend scaled grad
		mp.PrepareGrads([]*nn.Param{p})
		if mp.Overflowed(GlobalGradNorm([]*nn.Param{p})) {
			t.Fatal("spurious overflow")
		}
		mp.Apply(opt, 0)
	}
	if mp.Scale != 8 {
		t.Fatalf("scale = %v, want 8 after growth interval", mp.Scale)
	}
}

func TestMixedPrecisionUnscales(t *testing.T) {
	p := quadParam(0)
	mp := NewMixedPrecision(sunway.Mixed, []*nn.Param{p})
	mp.Scale = 8
	p.G.Data[0] = 16 // scaled gradient
	mp.PrepareGrads([]*nn.Param{p})
	if p.G.Data[0] != 2 {
		t.Fatalf("unscaled grad = %v, want 2", p.G.Data[0])
	}
}

func TestMixedPrecisionMastersKeepPrecision(t *testing.T) {
	// Updates smaller than FP16 resolution must still accumulate via
	// the FP32 master copy.
	p := quadParam(1)
	mp := NewMixedPrecision(sunway.Mixed, []*nn.Param{p})
	mp.Scale = 1
	mp.GrowthInterval = 1 << 30 // keep the scale fixed for this test
	opt := NewSGD(0)
	for i := 0; i < 1000; i++ {
		p.G.Data[0] = 1e-4 // below FP16 ulp at 1.0 (≈ 5e-4... close)
		mp.PrepareGrads([]*nn.Param{p})
		mp.Apply(opt, 1)
	}
	// Master should have moved by ~0.1.
	if p.W.Data[0] > 0.95 {
		t.Fatalf("master accumulation failed: w = %v", p.W.Data[0])
	}
}

func TestFP32ModeIsPassthrough(t *testing.T) {
	p := quadParam(1)
	mp := NewMixedPrecision(sunway.FP32, []*nn.Param{p})
	if mp.LossScale() != 1 {
		t.Fatalf("fp32 loss scale %v", mp.LossScale())
	}
	p.G.Data[0] = 1e7
	mp.PrepareGrads([]*nn.Param{p})
	if mp.Overflowed(GlobalGradNorm([]*nn.Param{p})) {
		t.Fatal("fp32 must not overflow-skip")
	}
}

func tinyModel(seed uint64) (*nn.GPT, *data.Corpus) {
	r := tensor.NewRNG(seed)
	cfg := nn.GPTConfig{Vocab: 32, Dim: 16, Heads: 2, Layers: 1, SeqLen: 8, FFNHidden: 32}
	model := nn.NewGPT(cfg, r, nil)
	corpus, err := data.NewSynthetic(data.CorpusConfig{
		Vocab: 32, SeqLen: 8, Zipf: 0.5, Determinism: 0.9, Seed: seed,
	})
	if err != nil {
		panic(err)
	}
	return model, corpus
}

func TestTrainerLossDecreases(t *testing.T) {
	model, corpus := tinyModel(1)
	tr, err := NewTrainer(model, corpus, NewAdam(0), Config{
		Batch: 4, Precision: sunway.FP32, Schedule: ConstantLR(3e-3), ClipNorm: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var first, last float32
	for i := 0; i < 40; i++ {
		m := tr.Step()
		if i == 0 {
			first = m.Loss
		}
		last = m.Loss
		if m.GradNorm < 0 {
			t.Fatal("negative grad norm")
		}
	}
	if last >= first*0.9 {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
	if tr.StepCount() != 40 {
		t.Fatalf("StepCount = %d", tr.StepCount())
	}
}

// Who reports the gradient norm: the trainer, unless a sync hook is
// installed — then the hook does (the parallel engine's distributed
// norm) and the trainer must not spend a pass over every gradient on a
// number nobody reads. The update itself is the same either way.
func TestGradNormLeftToSyncHook(t *testing.T) {
	step := func(hook bool) (Metrics, []float32) {
		model, corpus := tinyModel(3)
		tr, err := NewTrainer(model, corpus, NewAdam(0), Config{Batch: 4, Precision: sunway.FP32})
		if err != nil {
			t.Fatal(err)
		}
		if hook {
			tr.PostBackward = func(Metrics) float32 { return 0 }
		}
		m := tr.Step()
		return m, append([]float32(nil), tr.Params()[0].W.Data...)
	}
	plain, wPlain := step(false)
	hooked, wHooked := step(true)
	if plain.GradNorm <= 0 {
		t.Fatalf("plain trainer reports grad norm %v", plain.GradNorm)
	}
	if hooked.GradNorm != 0 {
		t.Fatalf("trainer with a sync hook and no clipping computed grad norm %v", hooked.GradNorm)
	}
	if plain.Loss != hooked.Loss {
		t.Fatalf("loss %v vs %v", plain.Loss, hooked.Loss)
	}
	for i := range wPlain {
		if wPlain[i] != wHooked[i] {
			t.Fatalf("weight %d: %v vs %v", i, wPlain[i], wHooked[i])
		}
	}
}

func TestTrainerMixedPrecisionTrains(t *testing.T) {
	model, corpus := tinyModel(2)
	tr, err := NewTrainer(model, corpus, NewAdam(0), Config{
		Batch: 4, Precision: sunway.Mixed, Schedule: ConstantLR(3e-3), ClipNorm: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var first, last float32
	for i := 0; i < 40; i++ {
		m := tr.Step()
		if i == 0 {
			first = m.Loss
		}
		if !m.Skipped {
			last = m.Loss
		}
	}
	if last >= first*0.95 {
		t.Fatalf("mixed-precision loss did not decrease: %v -> %v", first, last)
	}
}

func TestTrainerValidatesConfig(t *testing.T) {
	model, corpus := tinyModel(3)
	if _, err := NewTrainer(model, corpus, NewSGD(0), Config{Batch: 0}); err == nil {
		t.Fatal("batch 0 accepted")
	}
	badCorpus, _ := data.NewSynthetic(data.CorpusConfig{Vocab: 32, SeqLen: 4, Seed: 1})
	if _, err := NewTrainer(model, badCorpus, NewSGD(0), Config{Batch: 1}); err == nil {
		t.Fatal("mismatched seq len accepted")
	}
}

func TestBF16ModeTrains(t *testing.T) {
	model, corpus := tinyModel(50)
	tr, err := NewTrainer(model, corpus, NewAdam(0), Config{
		Batch: 4, Precision: sunway.BF16, Schedule: ConstantLR(3e-3), ClipNorm: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr.MP.LossScale() != 1 {
		t.Fatalf("bf16 must not loss-scale, got %v", tr.MP.LossScale())
	}
	var first, last float32
	for i := 0; i < 40; i++ {
		m := tr.Step()
		if i == 0 {
			first = m.Loss
		}
		last = m.Loss
	}
	if last >= first*0.95 {
		t.Fatalf("bf16 training did not reduce loss: %v -> %v", first, last)
	}
}

func TestBF16WeightsAreRepresentable(t *testing.T) {
	model, corpus := tinyModel(51)
	tr, err := NewTrainer(model, corpus, NewSGD(0), Config{
		Batch: 2, Precision: sunway.BF16, Schedule: ConstantLR(1e-2),
	})
	if err != nil {
		t.Fatal(err)
	}
	tr.Step()
	// Every weight must round-trip bf16 exactly (i.e. already be a
	// bf16 value).
	for _, p := range tr.Params() {
		for i, v := range p.W.Data {
			if half.BRoundTrip32(v) != v {
				t.Fatalf("%s[%d] = %v is not bf16-representable", p.Name, i, v)
			}
		}
	}
}

func TestBF16HugeGradientsDoNotOverflow(t *testing.T) {
	p := quadParam(1)
	mp := NewMixedPrecision(sunway.BF16, []*nn.Param{p})
	p.G.Data[0] = 1e30 // far beyond FP16 range, fine for bf16
	mp.PrepareGrads([]*nn.Param{p})
	if mp.Overflowed(GlobalGradNorm([]*nn.Param{p})) {
		t.Fatal("bf16 spuriously skipped a large-gradient step")
	}
	if mp.SkippedSteps() != 0 {
		t.Fatal("bf16 counted a skip")
	}
}

// evalResult summarizes a forward-only evaluation pass.
type evalResult struct {
	Loss       float64 // mean cross-entropy per token
	Perplexity float64 // exp(Loss)
	Accuracy   float64 // next-token top-1 accuracy
	Tokens     int
}

// evaluate runs the model forward on `batches` fresh batches from the
// corpus (no gradients, no updates) and reports loss, perplexity and
// top-1 next-token accuracy: the held-out yardstick of the training
// tests below.
func evaluate(model *nn.GPT, corpus *data.Corpus, batches, batchSize int) evalResult {
	var res evalResult
	var lossSum float64
	correct := 0
	for b := 0; b < batches; b++ {
		ids, targets := corpus.Batch(batchSize)
		logits := model.Forward(ids)
		var ce nn.SoftmaxCrossEntropy
		lossSum += float64(ce.Forward(logits, targets)) * float64(len(targets))
		for i, p := range tensor.ArgMaxRows(logits) {
			if p == targets[i] {
				correct++
			}
		}
		res.Tokens += len(targets)
	}
	if res.Tokens > 0 {
		res.Loss = lossSum / float64(res.Tokens)
		res.Perplexity = math.Exp(res.Loss)
		res.Accuracy = float64(correct) / float64(res.Tokens)
	}
	return res
}

func TestEvaluateUntrainedNearUniform(t *testing.T) {
	model, corpus := tinyModel(90)
	res := evaluate(model, corpus, 4, 4)
	if res.Tokens != 4*4*8 {
		t.Fatalf("tokens = %d", res.Tokens)
	}
	// Untrained: loss near ln(vocab)=ln(32)≈3.47, ppl near 32.
	if math.Abs(res.Loss-math.Log(32)) > 0.7 {
		t.Fatalf("untrained loss %v, want ~%v", res.Loss, math.Log(32))
	}
	if math.Abs(res.Perplexity-math.Exp(res.Loss)) > 1e-9 {
		t.Fatal("perplexity != exp(loss)")
	}
	if res.Accuracy < 0 || res.Accuracy > 0.3 {
		t.Fatalf("untrained accuracy %v", res.Accuracy)
	}
}

func TestEvaluateImprovesWithTraining(t *testing.T) {
	model, corpus := tinyModel(91)
	tr, err := NewTrainer(model, corpus, NewAdam(0), Config{
		Batch: 4, Precision: sunway.FP32, Schedule: ConstantLR(3e-3), ClipNorm: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	evalCorpus, _ := data.NewSynthetic(data.CorpusConfig{
		Vocab: 32, SeqLen: 8, Zipf: 0.5, Determinism: 0.9, Seed: 999,
	})
	before := evaluate(model, evalCorpus, 4, 4)
	for i := 0; i < 60; i++ {
		tr.Step()
	}
	evalCorpus2, _ := data.NewSynthetic(data.CorpusConfig{
		Vocab: 32, SeqLen: 8, Zipf: 0.5, Determinism: 0.9, Seed: 999,
	})
	after := evaluate(model, evalCorpus2, 4, 4)
	if after.Loss >= before.Loss {
		t.Fatalf("held-out loss did not improve: %v -> %v", before.Loss, after.Loss)
	}
	if after.Accuracy <= before.Accuracy {
		t.Fatalf("held-out accuracy did not improve: %v -> %v", before.Accuracy, after.Accuracy)
	}
}
