package nn

import (
	"testing"

	"bagualu/internal/tensor"
)

// TestRecomputeGradsIdentical proves activation checkpointing changes
// nothing about the gradients — only when they are computed.
func TestRecomputeGradsIdentical(t *testing.T) {
	build := func() *GPT {
		r := tensor.NewRNG(41)
		return NewGPT(GPTConfig{
			Vocab: 32, Dim: 16, Heads: 2, Layers: 3, SeqLen: 8, FFNHidden: 32,
		}, r, nil)
	}
	ids := []int{1, 5, 3, 7, 2, 9, 4, 0}
	targets := []int{5, 3, 7, 2, 9, 4, 0, 1}

	grads := func(recompute bool) map[string]*tensor.Tensor {
		g := build()
		if recompute {
			g.RecomputePolicy = []bool{true, true, true}
		}
		var loss SoftmaxCrossEntropy
		loss.Forward(g.Forward(ids), targets)
		ZeroGrads(g.Params())
		g.Backward(loss.Backward())
		out := map[string]*tensor.Tensor{}
		for _, p := range g.Params() {
			out[p.Name] = p.G.Clone()
		}
		return out
	}
	plain := grads(false)
	ckpt := grads(true)
	for name, g := range plain {
		if !g.AllClose(ckpt[name], 0) {
			t.Fatalf("recompute changed gradient of %s", name)
		}
	}
}

func TestRecomputeTrains(t *testing.T) {
	r := tensor.NewRNG(42)
	g := NewGPT(GPTConfig{Vocab: 16, Dim: 16, Heads: 2, Layers: 2, SeqLen: 4, FFNHidden: 32}, r, nil)
	g.RecomputePolicy = []bool{true, true}
	params := g.Params()
	data := tensor.NewRNG(1)
	var first, last float32
	for step := 0; step < 60; step++ {
		ids := make([]int, 8)
		targets := make([]int, 8)
		for i := range ids {
			ids[i] = data.Intn(16)
			targets[i] = (ids[i] + 1) % 16
		}
		var loss SoftmaxCrossEntropy
		lv := loss.Forward(g.Forward(ids), targets)
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
		t.Fatalf("recompute training did not converge: %v -> %v", first, last)
	}
}

func TestGenerateGreedyDeterministic(t *testing.T) {
	r := tensor.NewRNG(43)
	g := NewGPT(GPTConfig{Vocab: 16, Dim: 8, Heads: 2, Layers: 1, SeqLen: 4, FFNHidden: 16}, r, nil)
	a := g.Generate([]int{1, 2}, 5, 0, nil)
	b := g.Generate([]int{1, 2}, 5, 0, nil)
	if len(a) != 7 {
		t.Fatalf("generated length %d, want 7", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("greedy generation not deterministic")
		}
	}
	if a[0] != 1 || a[1] != 2 {
		t.Fatal("prompt not preserved")
	}
	for _, id := range a {
		if id < 0 || id >= 16 {
			t.Fatalf("generated id %d out of vocab", id)
		}
	}
}

func TestGenerateLongPromptUsesWindow(t *testing.T) {
	r := tensor.NewRNG(44)
	g := NewGPT(GPTConfig{Vocab: 8, Dim: 8, Heads: 2, Layers: 1, SeqLen: 4, FFNHidden: 16}, r, nil)
	prompt := []int{1, 2, 3, 4, 5, 6} // longer than SeqLen
	out := g.Generate(prompt, 3, 0, nil)
	if len(out) != 9 {
		t.Fatalf("length %d", len(out))
	}
	// The continuation depends only on the last SeqLen tokens.
	out2 := g.Generate([]int{7, 7, 3, 4, 5, 6}, 3, 0, nil)
	for i := 6; i < 9; i++ {
		if out[i] != out2[i] {
			t.Fatal("tokens outside the window influenced generation")
		}
	}
}

func TestGenerateTemperatureSampling(t *testing.T) {
	r := tensor.NewRNG(45)
	g := NewGPT(GPTConfig{Vocab: 16, Dim: 8, Heads: 2, Layers: 1, SeqLen: 4, FFNHidden: 16}, r, nil)
	rng := tensor.NewRNG(46)
	seen := map[int]bool{}
	for trial := 0; trial < 20; trial++ {
		out := g.Generate([]int{1}, 1, 5 /* hot */, rng)
		seen[out[1]] = true
	}
	if len(seen) < 2 {
		t.Fatal("high-temperature sampling produced a single token 20 times")
	}
}

func TestGenerateLearnsCopyPattern(t *testing.T) {
	// Train the next-token = current-token+1 pattern, then verify
	// greedy generation follows it.
	r := tensor.NewRNG(47)
	g := NewGPT(GPTConfig{Vocab: 8, Dim: 16, Heads: 2, Layers: 1, SeqLen: 8, FFNHidden: 32}, r, nil)
	params := g.Params()
	data := tensor.NewRNG(2)
	for step := 0; step < 150; step++ {
		ids := make([]int, 16)
		targets := make([]int, 16)
		for i := range ids {
			ids[i] = data.Intn(8)
			targets[i] = (ids[i] + 1) % 8
		}
		var loss SoftmaxCrossEntropy
		loss.Forward(g.Forward(ids), targets)
		ZeroGrads(params)
		g.Backward(loss.Backward())
		for _, p := range params {
			tensor.AXPY(-0.15, p.G, p.W)
		}
	}
	out := g.Generate([]int{3}, 4, 0, nil)
	correct := 0
	for i := 1; i < len(out); i++ {
		if out[i] == (out[i-1]+1)%8 {
			correct++
		}
	}
	if correct < 3 {
		t.Fatalf("trained model ignored the learned pattern: %v", out)
	}
}
