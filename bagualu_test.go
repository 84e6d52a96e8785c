package bagualu_test

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"bagualu"
	"bagualu/internal/perfmodel"
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
		MoEHidden: 32, MoEEvery: 1, Algo: bagualu.A2AAuto,
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
	tr, err := bagualu.NewTrainer(model, corpus, bagualu.NewSGD(0.9), bagualu.TrainConfig{
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

func TestFacadeProjection(t *testing.T) {
	specs := bagualu.BrainScaleSpecs()
	if len(specs) != 3 {
		t.Fatalf("%d specs", len(specs))
	}
	m := bagualu.NewGenerationSunway()
	d := bagualu.Deployment{
		Machine: m, RanksPerNode: 1, Grid: bagualu.Strategy{DataParallel: 1, ExpertParallel: m.Nodes()},
		BatchPerRank: 4, Precision: bagualu.Mixed, Efficiency: 0.35,
		A2A: bagualu.ProjA2AHierarchical, ZeRO: true,
	}
	rep, err := d.PredictStep(specs[2], perfmodel.FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Mem.Fits {
		t.Fatal("headline config must fit")
	}
	// Reproduction target: the paper's ~1.18 EFLOPS headline within
	// a factor of 2.
	ef := rep.SustainedFlops / 1e18
	if ef < 0.59 || ef > 2.36 {
		t.Fatalf("sustained %v EFLOPS outside 2x band of 1.18", ef)
	}
}

func TestFacadeCollectives(t *testing.T) {
	w := bagualu.NewWorld(4, nil)
	w.Run(func(c *bagualu.Comm) {
		sum := c.AllReduce([]float32{1}, bagualu.OpSum)
		if sum[0] != 4 {
			t.Errorf("AllReduce = %v", sum[0])
		}
		mx := c.AllReduce([]float32{float32(c.Rank())}, bagualu.OpMax)
		if mx[0] != 3 {
			t.Errorf("OpMax = %v", mx[0])
		}
	})
}

func ExampleNewWorld() {
	w := bagualu.NewWorld(3, nil)
	w.Run(func(c *bagualu.Comm) {
		total := c.AllReduce([]float32{1}, bagualu.OpSum)
		if c.Rank() == 0 {
			fmt.Println(int(total[0]), "ranks")
		}
	})
	// Output: 3 ranks
}

func ExampleBrainScaleSpecs() {
	for _, s := range bagualu.BrainScaleSpecs() {
		fmt.Printf("%s: %.3gT\n", s.Name, float64(s.TotalParams())/1e12)
	}
	// Output:
	// BaGuaLu-1.93T: 1.93T
	// BaGuaLu-14.5T: 14.5T
	// BaGuaLu-174T: 174T
}

func TestPrecisionConstantsDistinct(t *testing.T) {
	seen := map[bagualu.Precision]bool{}
	for _, p := range []bagualu.Precision{bagualu.FP64, bagualu.FP32, bagualu.FP16, bagualu.Mixed} {
		if seen[p] {
			t.Fatal("duplicate precision constant")
		}
		seen[p] = true
	}
}

func TestMachineHeadline(t *testing.T) {
	m := bagualu.NewGenerationSunway()
	if m.Cores() < 37_000_000 {
		t.Fatalf("cores = %d; the title promises over 37 million", m.Cores())
	}
	if math.Abs(m.PeakFlopsFP16()/1e18-5.3) > 1 {
		t.Fatalf("fp16 peak %.3g implausible", m.PeakFlopsFP16())
	}
}
