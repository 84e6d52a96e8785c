package bagualu_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"bagualu"
)

// TestFacadeEndToEnd drives the whole public API the way a downstream
// user would: build a machine, a world, a hybrid engine; train; check
// losses fall; checkpoint and restore.
func TestFacadeEndToEnd(t *testing.T) {
	machine := bagualu.TestMachine(2, 2)
	if machine.Cores() <= 0 {
		t.Fatal("machine has no cores")
	}
	topo := bagualu.NewTopology(machine, 1)
	strat := bagualu.Strategy{DataParallel: 2, ExpertParallel: 2}
	world := bagualu.NewWorld(strat.Size(), topo)

	mc := bagualu.ModelConfig{
		GPT:        bagualu.GPTConfig{Vocab: 32, Dim: 16, Heads: 2, Layers: 1, SeqLen: 8, FFNHidden: 32},
		NumExperts: 4, TopK: 2, CapacityFactor: 2, AuxLossWeight: 0.01,
		MoEHidden: 32, MoEEvery: 1, Algo: bagualu.A2AHierarchical,
	}
	cc := bagualu.CorpusConfig{Vocab: 32, SeqLen: 8, Zipf: 1, Determinism: 0.9, Seed: 2}
	tc := bagualu.TrainConfig{
		Batch: 2, Precision: bagualu.Mixed,
		Schedule: bagualu.WarmupCosine(3e-3, 3e-4, 2, 15), ClipNorm: 1,
	}

	var first, last float32
	world.Run(func(c *bagualu.Comm) {
		e, err := bagualu.NewEngine(c, strat, mc, cc, tc, bagualu.NewAdam(0.01), 1)
		if err != nil {
			t.Error(err)
			panic(err)
		}
		for s := 0; s < 15; s++ {
			st := e.Step()
			if c.Rank() == 0 {
				if s == 0 {
					first = st.Loss
				}
				last = st.Loss
			}
		}
	})
	if last >= first {
		t.Fatalf("facade training did not reduce loss: %v -> %v", first, last)
	}
	if world.Stats().Snapshot().TotalBytes() == 0 {
		t.Fatal("no traffic recorded")
	}
}

func TestFacadeSingleRankWithCheckpoint(t *testing.T) {
	r := bagualu.NewRNG(3)
	model := bagualu.NewGPT(bagualu.GPTConfig{
		Vocab: 16, Dim: 8, Heads: 2, Layers: 1, SeqLen: 4, FFNHidden: 16,
	}, r, func(block int, name string, rr *bagualu.RNG) bagualu.Layer {
		return bagualu.NewLocalMoE(name, rr, bagualu.GateConfig{
			Dim: 8, NumExperts: 2, TopK: 1, CapacityFactor: 2,
		}, 16)
	})
	corpus, err := bagualu.NewCorpus(bagualu.CorpusConfig{Vocab: 16, SeqLen: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := bagualu.NewTrainer(model, corpus, bagualu.NewAdam(0), bagualu.TrainConfig{
		Batch: 2, Precision: bagualu.FP32, Schedule: bagualu.ConstantLR(1e-2),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		tr.Step()
	}
	path := filepath.Join(t.TempDir(), "m.ckpt")
	if err := bagualu.SaveCheckpoint(path, 3, tr.Params()); err != nil {
		t.Fatal(err)
	}
	step, err := bagualu.LoadCheckpoint(path, tr.Params())
	if err != nil {
		t.Fatal(err)
	}
	if step != 3 {
		t.Fatalf("step = %d", step)
	}
}

func ExampleNewWorld() {
	w := bagualu.NewWorld(3, nil)
	w.Run(func(c *bagualu.Comm) {
		c.Barrier()
		if c.Rank() == 0 {
			fmt.Println(c.Size(), "ranks")
		}
	})
	// Output: 3 ranks
}

func TestPrecisionConstantsDistinct(t *testing.T) {
	if bagualu.FP32 == bagualu.Mixed {
		t.Fatal("duplicate precision constant")
	}
}
