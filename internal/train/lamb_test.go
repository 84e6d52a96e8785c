package train

import (
	"math"
	"testing"

	"bagualu/internal/nn"
	"bagualu/internal/sunway"
)

func TestLAMBConverges(t *testing.T) {
	p := quadParam(5, -3)
	target := []float32{1, 2}
	opt := NewLAMB(0)
	for i := 0; i < 500; i++ {
		quadGrad(p, target)
		opt.Step([]*nn.Param{p}, 0.05)
	}
	for i, want := range target {
		if math.Abs(float64(p.W.Data[i]-want)) > 0.2 {
			t.Fatalf("LAMB did not converge: %v", p.W.Data)
		}
	}
	if opt.StepCount() != 500 {
		t.Fatalf("StepCount = %d", opt.StepCount())
	}
}

func TestLAMBTrustRatioCapped(t *testing.T) {
	// A first step moves w by lr·trust·u, where the bias-corrected
	// Adam direction is u = g/(|g|+eps) and trust = ||w||/||u||.
	step := func(w, g float32) float64 {
		opt := NewLAMB(0)
		p := quadParam(w)
		p.G.Data[0] = g
		opt.Step([]*nn.Param{p}, 0.01)
		return float64(w - p.W.Data[0])
	}
	u := 1e-3 / (1e-3 + 1e-6)
	// Large weights, small direction: the raw ratio would be ~1000,
	// so the step is capped at MaxTrust = 10.
	if got, want := step(1000, 1e-3), 0.01*10*u; math.Abs(got-want) > 1e-4 {
		t.Fatalf("step %v, want %v (trust capped at 10)", got, want)
	}
	// Zero weights: neutral ratio.
	if got, want := step(0, 1e-3), 0.01*u; math.Abs(got-want) > 1e-6 {
		t.Fatalf("zero-weight step %v, want %v (trust 1)", got, want)
	}
}

func TestLAMBScaleInvariance(t *testing.T) {
	// The trust ratio makes the first update proportional to the
	// weight norm: scaling the weights by c scales the step by ~c.
	run := func(scale float32) float32 {
		p := quadParam(scale)
		opt := NewLAMB(0)
		opt.MaxTrust = 1e6 // uncap to observe the raw ratio
		quadGrad(p, []float32{0})
		before := p.W.Data[0]
		opt.Step([]*nn.Param{p}, 0.1)
		return before - p.W.Data[0]
	}
	small := run(1)
	big := run(100)
	if math.Abs(float64(big/small-100)) > 5 {
		t.Fatalf("LAMB step not weight-scaled: small %v, big %v", small, big)
	}
}

func TestLAMBTrainsModel(t *testing.T) {
	model, corpus := tinyModel(21)
	tr, err := NewTrainer(model, corpus, NewLAMB(0.01), Config{
		Batch: 4, Precision: sunway.FP32, Schedule: ConstantLR(5e-3), ClipNorm: 1,
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
	}
	if last >= first*0.95 {
		t.Fatalf("LAMB training did not reduce loss: %v -> %v", first, last)
	}
}

func TestGradAccumulationMatchesManualAverage(t *testing.T) {
	// A trainer with Accum=2 must produce exactly the mean of the two
	// micro-batch gradients.
	mk := func() *Trainer {
		model, corpus := tinyModel(33)
		tr, err := NewTrainer(model, corpus, NewAdam(0), Config{
			Batch: 2, Precision: sunway.FP32, Schedule: ConstantLR(0), Accum: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	auto := mk()
	auto.Step() // accumulates two micro-batches, lr 0 so weights unchanged

	manual := mk()
	nn.ZeroGrads(manual.params)
	ids1, tg1 := manual.Corpus.Batch(2)
	oracleMicroStep(manual, ids1, tg1, 0.5)
	ids2, tg2 := manual.Corpus.Batch(2)
	oracleMicroStep(manual, ids2, tg2, 0.5)

	for i := range auto.params {
		if !auto.params[i].G.AllClose(manual.params[i].G, 1e-6) {
			t.Fatalf("accumulated grad differs for %s", auto.params[i].Name)
		}
	}
}

func TestGradAccumulationTrains(t *testing.T) {
	model, corpus := tinyModel(34)
	tr, err := NewTrainer(model, corpus, NewAdam(0), Config{
		Batch: 2, Precision: sunway.FP32, Schedule: ConstantLR(3e-3), ClipNorm: 1, Accum: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var first, last float32
	for i := 0; i < 25; i++ {
		m := tr.Step()
		if i == 0 {
			first = m.Loss
		}
		last = m.Loss
	}
	if last >= first*0.95 {
		t.Fatalf("accumulated training did not reduce loss: %v -> %v", first, last)
	}
}

func TestGradAccumulationWithMixedPrecision(t *testing.T) {
	model, corpus := tinyModel(35)
	tr, err := NewTrainer(model, corpus, NewAdam(0), Config{
		Batch: 2, Precision: sunway.Mixed, Schedule: ConstantLR(3e-3), ClipNorm: 1, Accum: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var first, last float32
	for i := 0; i < 30; i++ {
		m := tr.Step()
		if i == 0 {
			first = m.Loss
		}
		if !m.Skipped {
			last = m.Loss
		}
	}
	if last >= first {
		t.Fatalf("mixed+accum training did not reduce loss: %v -> %v", first, last)
	}
}

func TestZeroGradIsolatesSteps(t *testing.T) {
	// Two identical Steps from identical states must produce
	// identical losses on identical data; stale gradients would
	// break this.
	a, ca := tinyModel(36)
	b, cb := tinyModel(36)
	ta, _ := NewTrainer(a, ca, NewAdam(0), Config{Batch: 2, Precision: sunway.FP32, Schedule: ConstantLR(1e-2)})
	tb, _ := NewTrainer(b, cb, NewAdam(0), Config{Batch: 2, Precision: sunway.FP32, Schedule: ConstantLR(1e-2)})
	for i := 0; i < 5; i++ {
		ma := ta.Step()
		mb := tb.Step()
		if ma.Loss != mb.Loss {
			t.Fatalf("step %d: identical trainers diverged: %v vs %v", i, ma.Loss, mb.Loss)
		}
	}
}

func TestTensorOpsUsedByOptimizers(t *testing.T) {
	// Guard the subtle contract: Step must read p.G and write p.W
	// without allocating new tensors for them.
	p := quadParam(1, 2)
	w, g := p.W, p.G
	quadGrad(p, []float32{0, 0})
	NewAdam(0).Step([]*nn.Param{p}, 0.1)
	if p.W != w || p.G != g {
		t.Fatal("optimizer replaced parameter tensors")
	}
}
