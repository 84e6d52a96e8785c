package train

import (
	"math"
	"testing"

	"bagualu/internal/data"
	"bagualu/internal/moe"
	"bagualu/internal/nn"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
)

// moeModel builds a small deterministic MoE GPT plus a matching
// corpus; identical seeds yield bitwise-identical models and batches.
func moeModel(seed uint64) (*nn.GPT, *data.Corpus) {
	r := tensor.NewRNG(seed)
	cfg := nn.GPTConfig{Vocab: 32, Dim: 16, Heads: 2, Layers: 2, SeqLen: 8, FFNHidden: 32}
	model := nn.NewGPT(cfg, r, func(block int, name string, rr *tensor.RNG) nn.Layer {
		return moe.NewLocalMoE(name, rr, moe.GateConfig{
			Dim: 16, NumExperts: 4, TopK: 2, CapacityFactor: 1.5, AuxLossWeight: 0.01,
		}, 32)
	})
	corpus, err := data.NewSynthetic(data.CorpusConfig{
		Vocab: 32, SeqLen: 8, Zipf: 0.5, Determinism: 0.9, Seed: seed,
	})
	if err != nil {
		panic(err)
	}
	return model, corpus
}

// TestPooledStepMatchesUnpooled trains two identical MoE models for
// several steps — one through Step (which installs the step arena, so
// all intermediates come from recycled pool buffers), one through
// StepOn on an Unpooled trainer (which never pools) — and requires
// identical losses and final weights. Any buffer-recycling bug (stale
// data surviving a drain, aliased scratch buffers, a missed zero-fill)
// shows up as a divergence, typically from step 2 onward when reuse
// begins.
func TestPooledStepMatchesUnpooled(t *testing.T) {
	const seed = 7
	const steps = 6
	mPool, cPool := moeModel(seed)
	mRef, cRef := moeModel(seed)
	cfg := Config{Batch: 4, Precision: sunway.FP32, Schedule: ConstantLR(3e-3), ClipNorm: 1}
	trPool, err := NewTrainer(mPool, cPool, NewAdam(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	trRef, err := NewTrainer(mRef, cRef, NewAdam(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	trRef.Unpooled = true

	for i := 0; i < steps; i++ {
		mp := trPool.Step()
		ids, targets := cRef.Batch(cfg.Batch)
		mr := trRef.StepOn(ids, targets)
		if mp.Loss != mr.Loss {
			t.Fatalf("step %d: pooled loss %v != unpooled %v", i, mp.Loss, mr.Loss)
		}
		if mp.AuxLoss != mr.AuxLoss {
			t.Fatalf("step %d: pooled aux %v != unpooled %v", i, mp.AuxLoss, mr.AuxLoss)
		}
		if mp.GradNorm != mr.GradNorm {
			t.Fatalf("step %d: pooled grad norm %v != unpooled %v", i, mp.GradNorm, mr.GradNorm)
		}
	}

	pp, rp := trPool.Params(), trRef.Params()
	if len(pp) != len(rp) {
		t.Fatalf("param count %d vs %d", len(pp), len(rp))
	}
	for i := range pp {
		if pp[i].Name != rp[i].Name {
			t.Fatalf("param order mismatch: %s vs %s", pp[i].Name, rp[i].Name)
		}
		for j := range pp[i].W.Data {
			a, b := pp[i].W.Data[j], rp[i].W.Data[j]
			if a != b {
				t.Fatalf("weight %s[%d] diverged after %d steps: pooled %v, unpooled %v (Δ=%g)",
					pp[i].Name, j, steps, a, b, math.Abs(float64(a-b)))
			}
		}
	}
}

// TestPooledStepGradientsMatchUnpooled compares raw per-parameter
// gradients of a single pooled vs unpooled backward pass (no
// optimizer noise accumulates, so this localizes a pool bug to the
// forward/backward path itself). The pooled model runs a throwaway
// warm-up step first so its second step works entirely on recycled
// buffers.
func TestPooledStepGradientsMatchUnpooled(t *testing.T) {
	const seed = 9
	mPool, cPool := moeModel(seed)
	mRef, cRef := moeModel(seed)
	// LR 0: steps compute gradients but never move the weights, so
	// both models stay at their (identical) initialization.
	cfg := Config{Batch: 4, Precision: sunway.FP32, Schedule: ConstantLR(0)}
	trPool, err := NewTrainer(mPool, cPool, NewSGD(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	trRef, err := NewTrainer(mRef, cRef, NewSGD(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	trRef.Unpooled = true

	// Warm up the pool, then take the comparison step on reused
	// buffers. The reference consumes its corpus in lockstep.
	trPool.Step()
	cRef.Batch(cfg.Batch)
	trPool.Step()
	ids, targets := cRef.Batch(cfg.Batch)
	trRef.StepOn(ids, targets)

	pp, rp := trPool.Params(), trRef.Params()
	for i := range pp {
		for j := range pp[i].G.Data {
			a, b := pp[i].G.Data[j], rp[i].G.Data[j]
			if a != b {
				t.Fatalf("grad %s[%d]: pooled %v, unpooled %v", pp[i].Name, j, a, b)
			}
		}
	}
}
