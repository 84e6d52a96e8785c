package parallel

import (
	"testing"

	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/train"
)

// pipeRun is one engine run's observable trajectory: rank-0 step stats
// plus a by-name snapshot of every rank's owned weights after the last
// step (under PP each rank owns a stage's chunk; the union covers the
// model).
type pipeRun struct {
	stats   []StepStats
	weights map[string][]float32
}

// runPipeline runs steps of the strategy on a fresh world and collects
// the trajectory. Pooling is disabled on every rank (not just
// multi-rank ones) so single-rank baselines and pipeline runs share
// the exact allocation path.
func runPipeline(t *testing.T, strat Strategy, mc ModelConfig, tc train.Config,
	steps int, optFor func() train.Optimizer) pipeRun {
	t.Helper()
	topo := simnet.New(sunway.TestMachine(2, 4), 1)
	w := mpi.NewWorld(strat.Size(), topo)
	run := pipeRun{stats: make([]StepStats, steps)}
	perRank := make([]map[string][]float32, strat.Size())
	w.Run(func(c *mpi.Comm) {
		e, err := NewEngine(c, strat, mc, tinyCorpusCfg(), tc, optFor(), 11)
		if err != nil {
			t.Error(err)
			panic(err)
		}
		for s := 0; s < steps; s++ {
			st := e.Step()
			if c.Rank() == 0 {
				run.stats[s] = st
			}
		}
		snap := map[string][]float32{}
		for _, p := range e.Trainer.Params() {
			snap[p.Name] = append([]float32(nil), p.W.Data...)
		}
		perRank[c.Rank()] = snap
	})
	run.weights = map[string][]float32{}
	for _, snap := range perRank {
		for name, w := range snap {
			run.weights[name] = w
		}
	}
	return run
}

// comparePipeRuns asserts two trajectories match: every step's loss
// and every weight bit-identical. The *reported* aux-loss metric is
// compared to 1 ULP-scale relative tolerance only: under PP the world
// sum associates per-stage partials where the flat engine sums layers
// inside each micro-batch, so the float32 metric can differ in the
// last bit — while the aux gradient itself is injected per-gate
// locally and stays exact, which the bit-identical weights prove.
func comparePipeRuns(t *testing.T, ref, got pipeRun) {
	t.Helper()
	for s := range ref.stats {
		if ref.stats[s].Loss != got.stats[s].Loss {
			t.Fatalf("step %d: loss %v != reference %v", s, got.stats[s].Loss, ref.stats[s].Loss)
		}
		ra, ga := float64(ref.stats[s].AuxLoss), float64(got.stats[s].AuxLoss)
		if d := ra - ga; d > 1e-6*(1+ra) || d < -1e-6*(1+ra) {
			t.Fatalf("step %d: aux loss %v != reference %v", s, got.stats[s].AuxLoss, ref.stats[s].AuxLoss)
		}
	}
	if len(got.weights) == 0 {
		t.Fatal("no weights collected")
	}
	for name, w := range got.weights {
		rw, ok := ref.weights[name]
		if !ok {
			t.Fatalf("weight %s missing from reference", name)
		}
		if len(rw) != len(w) {
			t.Fatalf("weight %s: %d elems vs reference %d", name, len(w), len(rw))
		}
		for i := range w {
			if w[i] != rw[i] {
				t.Fatalf("weight %s[%d]: %v != reference %v", name, i, w[i], rw[i])
			}
		}
	}
}

// pipeModelCfg is the tiny MoE transformer the pipeline tests split
// into stages: enough layers to chunk four ways.
func pipeModelCfg(layers int) ModelConfig {
	mc := tinyModelCfg(1)
	mc.GPT.Layers = layers
	return mc
}

// pipeTrainCfg is FP32 with ClipNorm 0: the clip decision would hang
// off the global norm, whose float64 stage-combine associates
// differently from the flat sum (bit-level), so the bit-exactness
// gates run unclipped like TestZeROBitExactVsUnsharded's FP32 rows.
func pipeTrainCfg(accum int) train.Config {
	tc := tinyTrainCfg()
	tc.ClipNorm = 0
	tc.Accum = accum
	return tc
}

// TestPipelineBitExactVsNoPP is the tentpole acceptance gate: a 1F1B
// pipeline over S stages must follow the EXACT loss/weight trajectory
// of the same model trained without PP using S-way gradient
// accumulation. Stash-and-replay reuses the recompute mechanism, the
// per-chunk backward order matches accumulation order, and the 1/M
// loss scaling matches the micro-step weight — so any inequality is a
// real divergence, not float noise.
func TestPipelineBitExactVsNoPP(t *testing.T) {
	const steps = 5
	for _, cse := range []struct {
		name   string
		layers int
		pp     int
	}{
		{"pp2", 4, 2},
		{"pp4", 4, 4},
	} {
		t.Run(cse.name, func(t *testing.T) {
			mc := pipeModelCfg(cse.layers)
			tc := pipeTrainCfg(cse.pp) // M = S micro-batches
			ref := runPipeline(t, Strategy{DataParallel: 1, ExpertParallel: 1}, mc, tc, steps,
				func() train.Optimizer { return train.NewAdam(0) })
			got := runPipeline(t, Strategy{DataParallel: 1, ExpertParallel: 1, Pipeline: cse.pp}, mc, tc, steps,
				func() train.Optimizer { return train.NewAdam(0) })
			comparePipeRuns(t, ref, got)
		})
	}
}

// TestPipelineInterleavedBitExact extends the gate to the interleaved
// virtual-stage schedule: S=2 stages x V=2 chunks each must still be
// bit-exact against plain gradient accumulation.
func TestPipelineInterleavedBitExact(t *testing.T) {
	const steps = 4
	mc := pipeModelCfg(4)
	tc := pipeTrainCfg(4) // M=4 divisible by S=2
	ref := runPipeline(t, Strategy{DataParallel: 1, ExpertParallel: 1}, mc, tc, steps,
		func() train.Optimizer { return train.NewAdam(0) })
	got := runPipeline(t, Strategy{DataParallel: 1, ExpertParallel: 1, Pipeline: 2, Virtual: 2}, mc, tc, steps,
		func() train.Optimizer { return train.NewAdam(0) })
	comparePipeRuns(t, ref, got)
}

// TestPipelineFoldedMatchesMoDa pins the parallel-folding claim: a
// [pp=2, dp=1, ep=2] grid must reproduce the flat dp=1 x ep=2 MoDa
// engine bit-for-bit — each stage's folded sub-grid sees the same
// token streams (corpus seeded by within-stage index), the same expert
// all-to-all partners, and the same gradient averaging.
func TestPipelineFoldedMatchesMoDa(t *testing.T) {
	const steps = 4
	mc := pipeModelCfg(4)
	tc := pipeTrainCfg(2)
	ref := runPipeline(t, Strategy{DataParallel: 1, ExpertParallel: 2}, mc, tc, steps,
		func() train.Optimizer { return train.NewAdam(0) })
	got := runPipeline(t, Strategy{DataParallel: 1, ExpertParallel: 2, Pipeline: 2}, mc, tc, steps,
		func() train.Optimizer { return train.NewAdam(0) })
	comparePipeRuns(t, ref, got)
}

// TestPipelineZeROBitExact rebases the ZeRO gate onto the folded
// grid: the sharded optimizer's moment ranges re-partition over each
// stage's communicators and must still follow the unsharded Adam
// trajectory exactly.
func TestPipelineZeROBitExact(t *testing.T) {
	const steps = 4
	mc := pipeModelCfg(4)
	tc := pipeTrainCfg(2)
	strat := Strategy{DataParallel: 1, ExpertParallel: 2, Pipeline: 2}
	ref := runPipeline(t, strat, mc, tc, steps,
		func() train.Optimizer { return train.NewAdam(0) })
	got := runPipeline(t, strat, mc, tc, steps,
		func() train.Optimizer { return train.NewShardedAdam(0) })
	comparePipeRuns(t, ref, got)
}

// TestPipelineDeterministicReplay pins replayability of the full 1F1B
// engine (the -count=2 verify gate re-runs this test in a fresh
// process to catch cross-process nondeterminism).
func TestPipelineDeterministicReplay(t *testing.T) {
	mc := pipeModelCfg(4)
	tc := pipeTrainCfg(4)
	strat := Strategy{DataParallel: 1, ExpertParallel: 2, Pipeline: 2}
	a := runPipeline(t, strat, mc, tc, 4, func() train.Optimizer { return train.NewShardedAdam(0) })
	b := runPipeline(t, strat, mc, tc, 4, func() train.Optimizer { return train.NewShardedAdam(0) })
	comparePipeRuns(t, a, b)
}

// TestPipelineRejectsBadShapes pins the construction-time validation:
// non-divisible interleaving and overdeep pipelines fail fast instead of
// desynchronizing mid-run.
func TestPipelineRejectsBadShapes(t *testing.T) {
	if (Strategy{DataParallel: 1, ExpertParallel: 1, Virtual: 2}).Validate() == nil {
		t.Fatal("virtual stages without a pipeline accepted")
	}
	if got := (Strategy{DataParallel: 2, ExpertParallel: 2, Pipeline: 3}).Size(); got != 12 {
		t.Fatalf("folded size = %d, want 12", got)
	}
	build := func(strat Strategy, mc ModelConfig, tc train.Config) error {
		topo := simnet.New(sunway.TestMachine(2, 4), 1)
		w := mpi.NewWorld(strat.Size(), topo)
		var err error
		w.Run(func(c *mpi.Comm) {
			_, e := NewEngine(c, strat, mc, tinyCorpusCfg(), tc, train.NewAdam(0), 11)
			if c.Rank() == 0 {
				err = e
			}
		})
		return err
	}
	mc := pipeModelCfg(4)
	tcOdd := pipeTrainCfg(3) // 3 % 2 != 0
	if build(Strategy{DataParallel: 1, ExpertParallel: 1, Pipeline: 2, Virtual: 2}, mc, tcOdd) == nil {
		t.Fatal("interleaved with non-divisible micro count accepted")
	}
	if build(Strategy{DataParallel: 1, ExpertParallel: 1, Pipeline: 8}, pipeModelCfg(4), pipeTrainCfg(8)) == nil {
		t.Fatal("pipeline deeper than the layer stack accepted")
	}
}

// TestPipelineBubbleAccounted checks the bubble phase meter: a
// compute-priced pipeline run must attribute nonzero virtual stall
// time to metrics.PhaseBubble, and the flat grid none.
func TestPipelineBubbleAccounted(t *testing.T) {
	run := func(strat Strategy, accum int) float64 {
		mc := pipeModelCfg(4)
		tc := pipeTrainCfg(accum)
		topo := simnet.New(sunway.TestMachine(2, 4), 1)
		w := mpi.NewWorld(strat.Size(), topo)
		var bubble float64
		w.Run(func(c *mpi.Comm) {
			e, err := NewEngine(c, strat, mc, tinyCorpusCfg(), tc, train.NewAdam(0), 11)
			if err != nil {
				panic(err)
			}
			e.SetComputeRate(1e9)
			for s := 0; s < 2; s++ {
				st := e.Step()
				if c.Rank() == 0 {
					bubble += st.BubbleSim
				}
			}
		})
		return bubble
	}
	if b := run(Strategy{DataParallel: 1, ExpertParallel: 1, Pipeline: 2}, 2); b <= 0 {
		t.Fatalf("pipeline run reported no bubble time (%v)", b)
	}
	if b := run(Strategy{DataParallel: 2, ExpertParallel: 1}, 1); b != 0 {
		t.Fatalf("flat run reported bubble time %v", b)
	}
}

// TestPipelineWithRouteModes runs the folded engine across routing
// disciplines to make sure chunk-local aux collection composes with
// capacity drops and expert choice.
func TestPipelineWithRouteModes(t *testing.T) {
	for _, mode := range []moe.RouteMode{moe.TokenChoice, moe.CapacityDrop, moe.ExpertChoice} {
		mc := pipeModelCfg(4)
		mc.RouteMode = mode
		tc := pipeTrainCfg(2)
		got := runPipeline(t, Strategy{DataParallel: 1, ExpertParallel: 2, Pipeline: 2}, mc, tc, 3,
			func() train.Optimizer { return train.NewAdam(0) })
		for s, st := range got.stats {
			if st.Loss <= 0 || st.Loss != st.Loss {
				t.Fatalf("mode %v step %d: loss %v", mode, s, st.Loss)
			}
		}
	}
}

var _ = nn.NumParams // keep the import if helpers churn
