package train

import (
	"math"
	"sync"
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

// moeRun is one trainer's per-step metrics and final weights.
type moeRun struct {
	metrics []Metrics
	weights [][]float32
}

// trainMoE builds a fresh moeModel trainer and runs it for steps
// optimizer steps.
func trainMoE(seed uint64, steps int) (moeRun, error) {
	model, corpus := moeModel(seed)
	cfg := Config{Batch: 4, Precision: sunway.FP32, Schedule: ConstantLR(3e-3), ClipNorm: 1}
	tr, err := NewTrainer(model, corpus, NewAdam(0), cfg)
	if err != nil {
		return moeRun{}, err
	}
	var run moeRun
	for i := 0; i < steps; i++ {
		run.metrics = append(run.metrics, tr.Step())
	}
	for _, p := range tr.Params() {
		run.weights = append(run.weights, append([]float32(nil), p.W.Data...))
	}
	return run, nil
}

// TestConcurrentTrainersMatchSequential steps several identical
// trainers on their own goroutines at once and holds each to a run
// made alone: every step's loss, aux loss and gradient norm, and every
// final weight, bit for bit. Trainers share no step state, so any
// allocation or buffer one of them could see of another's shows up
// here (run it under -race).
func TestConcurrentTrainersMatchSequential(t *testing.T) {
	const (
		seed    = 7
		steps   = 6
		workers = 4
	)
	want, err := trainMoE(seed, steps)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]moeRun, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w], errs[w] = trainMoE(seed, steps)
		}()
	}
	wg.Wait()
	for w, run := range got {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		for i, m := range run.metrics {
			r := want.metrics[i]
			if m.Loss != r.Loss || m.AuxLoss != r.AuxLoss || m.GradNorm != r.GradNorm {
				t.Fatalf("trainer %d step %d: loss/aux/gnorm %v/%v/%v, alone %v/%v/%v",
					w, i, m.Loss, m.AuxLoss, m.GradNorm, r.Loss, r.AuxLoss, r.GradNorm)
			}
		}
		for p, ws := range run.weights {
			for j, v := range ws {
				if r := want.weights[p][j]; v != r {
					t.Fatalf("trainer %d param %d[%d] after %d steps: %v, alone %v (Δ=%g)",
						w, p, j, steps, v, r, math.Abs(float64(v-r)))
				}
			}
		}
	}
}
