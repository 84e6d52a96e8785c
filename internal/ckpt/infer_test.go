package ckpt

import (
	"sync/atomic"
	"testing"

	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
)

func inferTestGPT(seed uint64, ffn nn.FFNFactory) *nn.GPT {
	cfg := nn.GPTConfig{Vocab: 16, Dim: 8, Heads: 2, Layers: 2, SeqLen: 8, FFNHidden: 16}
	return nn.NewGPT(cfg, tensor.NewRNG(seed), ffn)
}

// stamp overwrites a tensor with a deterministic function of its name
// so any shard/name mixup during restore is visible in the values.
func stamp(p *nn.Param) {
	h := uint32(2166136261)
	for _, c := range []byte(p.Name) {
		h = (h ^ uint32(c)) * 16777619
	}
	for j := range p.W.Data {
		p.W.Data[j] = float32(h%997) + float32(j)*0.25
	}
}

// A DP2×EP2 training checkpoint (4 shards, experts split over 2-rank
// EP groups) must restore into a single-process EP=1 inference model
// by tensor name alone.
func TestLoadForInferenceCrossLayout(t *testing.T) {
	dir := t.TempDir()
	const gateExperts, topK = 4, 2
	gcfg := moe.GateConfig{Dim: 8, NumExperts: gateExperts, TopK: topK, CapacityFactor: 2}

	topo := simnet.New(sunway.TestMachine(2, 2), 1)
	w := mpi.NewWorld(4, topo)
	var firstErr atomic.Value
	w.Run(func(c *mpi.Comm) {
		ep := c.Split(c.Rank()/2, c.Rank())
		model := inferTestGPT(77, func(_ int, name string, r *tensor.RNG) nn.Layer {
			return moe.NewDistMoEComm(name, r, gcfg, 16, ep, moe.Hierarchical, moe.CommConfig{})
		})
		for _, p := range model.Params() {
			stamp(p)
		}
		wr := NewWriter(Config{Dir: dir}, c)
		hdr := Header{Step: 42, LossScale: 512, RNGState: 7}
		lay := Layout{WorldSize: 4, DataParallel: 2, ExpertParallel: 2}
		if err := wr.Save(42, hdr, model.Params(), lay); err != nil {
			firstErr.Store(err)
		}
		if err := wr.WaitIdle(); err != nil {
			firstErr.Store(err)
		}
	})
	if err, ok := firstErr.Load().(error); ok {
		t.Fatal(err)
	}

	// Single-process inference model: all experts local (EP=1). A
	// different construction seed proves no weight survives from
	// construction — every tensor must come from the checkpoint.
	model := inferTestGPT(123456, func(_ int, name string, r *tensor.RNG) nn.Layer {
		return moe.NewLocalMoE(name, r, gcfg, 16)
	})
	man, hdr, err := LoadForInference(dir, model.Params())
	if err != nil {
		t.Fatal(err)
	}
	if man.Step != 42 || man.Shards != 4 || man.Layout.ExpertParallel != 2 {
		t.Fatalf("manifest %+v", man)
	}
	if hdr.Step != 42 || hdr.LossScale != 512 {
		t.Fatalf("header %+v", hdr)
	}
	for _, p := range model.Params() {
		want := &nn.Param{Name: p.Name, W: tensor.New(p.W.Shape...)}
		stamp(want)
		for j := range p.W.Data {
			if p.W.Data[j] != want.W.Data[j] {
				t.Fatalf("tensor %s elem %d: got %v want %v", p.Name, j, p.W.Data[j], want.W.Data[j])
			}
		}
	}

	// A model with a tensor the checkpoint never wrote must fail.
	bad := append(model.Params(), &nn.Param{Name: "not.in.ckpt", W: tensor.New(2)})
	if _, _, err := LoadForInference(dir, bad); err == nil {
		t.Fatal("missing tensor silently accepted")
	}
}

func TestLoadForInferenceEmptyDir(t *testing.T) {
	if _, _, err := LoadForInference(t.TempDir(), nil); err == nil {
		t.Fatal("empty dir accepted")
	}
}
