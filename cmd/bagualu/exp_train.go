package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bagualu/internal/ckpt"
	"bagualu/internal/data"
	"bagualu/internal/metrics"
	"bagualu/internal/moe"
	"bagualu/internal/nn"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
	"bagualu/internal/train"
)

// tinyLM builds the single-rank language model R5 and the R20
// ablations train: a 2-layer d=32 GPT on the synthetic corpus at a
// constant 2e-3 learning rate, with 4-expert top-2 MoE blocks when
// gate is set and dense blocks when it is nil.
func tinyLM(modelSeed, corpusSeed uint64, gate *moe.GateConfig, opt train.Optimizer, tc train.Config) *train.Trainer {
	var ffn nn.FFNFactory
	if gate != nil {
		ffn = func(_ int, name string, r *tensor.RNG) nn.Layer { return moe.NewLocalMoE(name, r, *gate, 64) }
	}
	model := nn.NewGPT(nn.GPTConfig{
		Vocab: 64, Dim: 32, Heads: 4, Layers: 2, SeqLen: 16, FFNHidden: 64,
	}, tensor.NewRNG(modelSeed), ffn)
	corpus := must(data.NewSynthetic(data.CorpusConfig{
		Vocab: 64, SeqLen: 16, Zipf: 1, Determinism: 0.9, Seed: corpusSeed,
	}))
	tc.Schedule, tc.ClipNorm = train.ConstantLR(2e-3), 1
	return must(train.NewTrainer(model, corpus, opt, tc))
}

var tinyGate = moe.GateConfig{Dim: 32, NumExperts: 4, TopK: 2, CapacityFactor: 1.5, AuxLossWeight: 0.01}

// expR5: train the same MoE language model under FP32, pure FP16, the
// paper's mixed-precision policy (FP16 compute + FP32 master weights
// + dynamic loss scaling) and BF16, identical seeds, and compare
// where the loss ends.
func expR5(*options) []*metrics.Table {
	const steps = 80
	tab := metrics.NewTable(fmt.Sprintf("R5: mixed-precision convergence (%d steps, identical seeds)", steps),
		"precision", "final-loss", "overflow-skipped-steps")
	for _, prec := range []sunway.Precision{sunway.FP32, sunway.FP16, sunway.Mixed, sunway.BF16} {
		tr := tinyLM(11, 5, &tinyGate, train.NewAdam(0.01), train.Config{Batch: 8, Precision: prec})
		var last float32
		for i := 0; i < steps; i++ {
			if m := tr.Step(); !m.Skipped {
				last = m.Loss
			}
		}
		tab.AddRow(prec.String(), fmt.Sprintf("%.4f", last), tr.MP.SkippedSteps())
	}
	return []*metrics.Table{tab}
}

// expR10: save+restore round trip of a dense GPT through a one-shard
// checkpoint step on local disk — ckpt.Save then ckpt.Restore, the
// indexed bulk-CRC path every training, recovery and serving restore
// takes.
func expR10(*options) []*metrics.Table {
	const trips = 3
	tab := metrics.NewTable(fmt.Sprintf("R10: checkpoint save+restore round trip (one-shard step on local disk, mean of %d)", trips),
		"dim", "params", "bytes", "ms/trip", "MB/s")
	dir := must(os.MkdirTemp("", "bagualu-r10"))
	defer os.RemoveAll(dir)
	for _, dim := range []int{32, 128} {
		model := nn.NewGPT(nn.GPTConfig{
			Vocab: 256, Dim: dim, Heads: 4, Layers: 2, SeqLen: 16, FFNHidden: 4 * dim,
		}, tensor.NewRNG(1), nil)
		params := model.Params()
		t0 := time.Now()
		for i := 0; i < trips; i++ {
			check(ckpt.Save(dir, 0, ckpt.Header{}, params))
			must(ckpt.Restore(dir, 0, 0, params))
		}
		per := time.Since(t0).Seconds() / trips
		size := must(os.Stat(filepath.Join(ckpt.StepDir(dir, 0), ckpt.ShardFile(0)))).Size()
		tab.AddRow(dim, model.NumParams(), size, fmt.Sprintf("%.2f", per*1e3),
			fmt.Sprintf("%.0f", float64(size)/per/1e6))
	}
	return []*metrics.Table{tab}
}

// r20Steps is how long the R20b/R20c ablations train.
const r20Steps = 5

// trainR20 steps tr r20Steps times and returns the mean wall time per
// step and the last loss.
func trainR20(tr *train.Trainer) (ms float64, loss float32) {
	t0 := time.Now()
	for i := 0; i < r20Steps; i++ {
		loss = tr.Step().Loss
	}
	return time.Since(t0).Seconds() / r20Steps * 1e3, loss
}

// r20Optimizers runs R20b — Adam vs LAMB under an accumulated (large
// effective) batch — and hands each run to row. R20 prints the step
// cost, R20-loss where the loss ends.
func r20Optimizers(row func(name string, ms float64, loss float32)) {
	for _, o := range []struct {
		name string
		opt  train.Optimizer
	}{{"adam", train.NewAdam(0.01)}, {"lamb", train.NewLAMB(0.01)}} {
		ms, loss := trainR20(tinyLM(3, 6, nil, o.opt, train.Config{Batch: 4, Precision: sunway.FP32, Accum: 4}))
		row(o.name, ms, loss)
	}
}

// expR20: the wall-clock half of the DESIGN.md design-decision
// ablations.
func expR20(*options) []*metrics.Table {
	// R20a: the wall-time cost of activation checkpointing (the
	// memory/compute trade) on a 4-layer dense GPT.
	const rcSteps = 3
	rc := metrics.NewTable(fmt.Sprintf("R20a: activation recomputation (ms/step, mean of %d)", rcSteps),
		"mode", "ms/step")
	for _, mode := range []string{"plain", "recompute"} {
		g := nn.NewGPT(nn.GPTConfig{
			Vocab: 128, Dim: 64, Heads: 4, Layers: 4, SeqLen: 32, FFNHidden: 256,
		}, tensor.NewRNG(1), nil)
		if mode == "recompute" {
			g.RecomputePolicy = []bool{true, true, true, true}
		}
		ids := make([]int, 4*32)
		targets := make([]int, len(ids))
		dr := tensor.NewRNG(2)
		for i := range ids {
			ids[i] = dr.Intn(128)
			targets[i] = dr.Intn(128)
		}
		var loss nn.SoftmaxCrossEntropy
		t0 := time.Now()
		for i := 0; i < rcSteps; i++ {
			loss.Forward(g.Forward(ids), targets)
			nn.ZeroGrads(g.Params())
			g.Backward(loss.Backward())
		}
		rc.AddRow(mode, fmt.Sprintf("%.1f", time.Since(t0).Seconds()/rcSteps*1e3))
	}

	opt := metrics.NewTable(fmt.Sprintf("R20b: Adam vs LAMB step cost (accum=4, mean of %d steps)", r20Steps),
		"optimizer", "ms/step")
	r20Optimizers(func(name string, ms float64, _ float32) { opt.AddRow(name, fmt.Sprintf("%.1f", ms)) })
	return []*metrics.Table{rc, opt}
}

// expR20loss: the deterministic half of R20b/R20c — where the loss
// ends after a fixed number of steps from fixed seeds.
func expR20loss(*options) []*metrics.Table {
	opt := metrics.NewTable(fmt.Sprintf("R20b: Adam vs LAMB (accum=4, %d steps)", r20Steps),
		"optimizer", "final-loss")
	r20Optimizers(func(name string, _ float64, loss float32) { opt.AddRow(name, fmt.Sprintf("%.3f", loss)) })
	// R20c: learned top-k routing vs the uniform-random baseline on the
	// same loss surface.
	rt := metrics.NewTable(fmt.Sprintf("R20c: learned vs random routing (%d steps)", r20Steps),
		"routing", "final-loss")
	for _, mode := range []string{"learned", "random"} {
		gate := tinyGate
		gate.RandomRouting = mode == "random"
		_, loss := trainR20(tinyLM(7, 8, &gate, train.NewAdam(0.01), train.Config{Batch: 8, Precision: sunway.FP32}))
		rt.AddRow(mode, fmt.Sprintf("%.3f", loss))
	}
	return []*metrics.Table{opt, rt}
}
