package main

import (
	"fmt"

	"bagualu/internal/data"
	"bagualu/internal/metrics"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/parallel"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/train"
)

// engineRun is one hybrid-parallel training run of a sweep: the
// engine is built on every rank of a fresh world and stepped.
type engineRun struct {
	topo   *simnet.Topology
	strat  parallel.Strategy
	model  parallel.ModelConfig
	corpus data.CorpusConfig
	train  train.Config
	zero   bool    // ZeRO-sharded Adam instead of replicated
	decay  float32 // Adam weight decay
	seed   uint64
	rate   float64 // virtual FLOP/s charged for compute (0 = uncharged)
	steps  int
}

// run steps the engine, handing each rank 0's engine and stats after
// every step, and returns the world for its clock and traffic.
func (r engineRun) run(each func(e *parallel.Engine, st parallel.StepStats)) *mpi.World {
	optFor := train.OptimizerFactory(r.zero, r.decay)
	return onWorld(r.strat.Size(), r.topo, func(c *mpi.Comm) {
		e := must(parallel.NewEngine(c, r.strat, r.model, r.corpus, r.train, optFor(), r.seed))
		if r.rate > 0 {
			e.SetComputeRate(r.rate)
		}
		for s := 0; s < r.steps; s++ {
			if st := e.Step(); c.Rank() == 0 {
				each(e, st)
			}
		}
	})
}

// The in-simulator scaling experiments (R2, R3, R9, R16) train the
// same toy MoE-GPT and read the virtual clock, so topology effects
// are visible regardless of host hardware.
const (
	scalingMaxRanks = 16 // largest world
	scalingSteps    = 5  // steps per configuration
	scalingBatch    = 4  // sequences per rank (weak scaling)
)

// scalingRun describes a run on nodes of rpn ranks, perSN nodes per
// supernode, with virtual compute charged at 30% of a rank's share of
// its node's FP32 peak, so virtual throughput reflects the modeled
// machine rather than the host.
func scalingRun(strat parallel.Strategy, perSN, rpn, batch, experts int, algo moe.A2AAlgo) engineRun {
	machine, topo := topoFor(strat.Size(), perSN, rpn)
	return engineRun{
		topo: topo, strat: strat,
		model: parallel.ModelConfig{
			GPT:            nn.GPTConfig{Vocab: 128, Dim: 32, Heads: 2, Layers: 2, SeqLen: 16, FFNHidden: 64},
			NumExperts:     experts,
			TopK:           2,
			CapacityFactor: 1.5,
			AuxLossWeight:  0.01,
			MoEHidden:      64,
			MoEEvery:       1,
			Algo:           algo,
		},
		corpus: data.CorpusConfig{Vocab: 128, SeqLen: 16, Zipf: 1, Determinism: 0.85, Seed: 9},
		train:  train.Config{Batch: batch, Precision: sunway.FP32, Schedule: train.ConstantLR(1e-3), ClipNorm: 1},
		seed:   5,
		rate:   machine.NodeFlops(sunway.FP32) * 0.3 / float64(rpn),
		steps:  scalingSteps,
	}
}

// moeRun is the R2/R3/R9 run: dp=2 from 4 ranks up, two ranks per
// node, two nodes per supernode. It returns the mean per-step virtual
// time, the last step's throughput, and the summed MoE wall breakdown.
func moeRun(ranks, batch, experts int, algo moe.A2AAlgo) (simPerStep, tokensPerSimSec float64, tm moe.Timing) {
	strat := parallel.Strategy{DataParallel: 1, ExpertParallel: ranks}
	if ranks >= 4 {
		strat = parallel.Strategy{DataParallel: 2, ExpertParallel: ranks / 2}
	}
	var sim float64
	scalingRun(strat, 2, 2, batch, experts, algo).run(func(_ *parallel.Engine, st parallel.StepStats) {
		sim += st.SimTime
		tokensPerSimSec = st.TokensPer
		tm.Gate += st.MoE.Gate
		tm.Dispatch += st.MoE.Dispatch
		tm.Expert += st.MoE.Expert
		tm.Combine += st.MoE.Combine
	})
	return sim / scalingSteps, tokensPerSimSec, tm
}

// expR2: per-rank batch fixed, experts scale with ranks (one pool of
// 2·ranks experts).
func expR2(*options) []*metrics.Table {
	weak := metrics.NewTable("R2: weak scaling (fixed batch/rank, experts ∝ ranks)",
		"ranks", "simtime/step(s)", "tokens/simsec", "efficiency-vs-2")
	var base float64
	for p := 2; p <= scalingMaxRanks; p *= 2 {
		sim, tps, _ := moeRun(p, scalingBatch, 2*p, moe.Auto)
		if p == 2 {
			base = tps / float64(p)
		}
		weak.AddRow(p, sim, fmt.Sprintf("%.4g", tps),
			fmt.Sprintf("%.2f", tps/float64(p)/base))
	}
	return []*metrics.Table{weak}
}

// expR3: fixed global batch.
func expR3(*options) []*metrics.Table {
	strong := metrics.NewTable("R3: strong scaling (fixed global batch)",
		"ranks", "batch/rank", "simtime/step(s)", "speedup-vs-2")
	const globalBatch = 2 * scalingBatch * (scalingMaxRanks / 2)
	var t2 float64
	for p := 2; p <= scalingMaxRanks; p *= 2 {
		sim, _, _ := moeRun(p, globalBatch/p, 16, moe.Auto)
		if p == 2 {
			t2 = sim
		}
		strong.AddRow(p, globalBatch/p, sim, fmt.Sprintf("%.2f", t2/sim))
	}
	return []*metrics.Table{strong}
}

// expR9: phase breakdown at the largest configuration, per a2a
// algorithm.
func expR9(*options) []*metrics.Table {
	br := metrics.NewTable("R9: MoE phase wall-time breakdown (s, summed over steps)",
		"a2a", "gate", "dispatch", "expert", "combine")
	for _, algo := range []moe.A2AAlgo{moe.Direct, moe.Hierarchical} {
		_, _, tm := moeRun(scalingMaxRanks, scalingBatch, 2*scalingMaxRanks, algo)
		br.AddRow(algo.String(), tm.Gate, tm.Dispatch, tm.Expert, tm.Combine)
	}
	return []*metrics.Table{br}
}

// expR16: measured gradient-sync traffic and optimizer-state bytes of
// a dense model (experts off, so every gradient byte is sync traffic)
// over 8 DP ranks, one per node of one supernode: replicated Adam +
// ring all-reduce vs ZeRO-sharded Adam + reduce-scatter/all-gather.
func expR16(*options) []*metrics.Table {
	const ranks = 8
	tab := metrics.NewTable("R16: measured grad-sync traffic & optimizer state (dense model)",
		"optimizer", "ranks", "sync KiB/step", "opt-state KiB/rank", "simtime/step(s)")
	for _, zero := range []bool{false, true} {
		r := scalingRun(parallel.Strategy{DataParallel: ranks, ExpertParallel: 1}, ranks, 1, scalingBatch, 2, moe.Auto)
		r.model.MoEEvery = 0
		r.zero = zero
		var sim float64
		var optBytes int64
		w := r.run(func(e *parallel.Engine, st parallel.StepStats) {
			sim += st.SimTime
			optBytes = e.OptStateBytes()
		})
		name := "adam (replicated)"
		if zero {
			name = "zero (sharded)"
		}
		tab.AddRow(name, ranks, fmt.Sprintf("%.1f", float64(w.Stats().Snapshot().TotalBytes())/scalingSteps/(1<<10)),
			fmt.Sprintf("%.1f", float64(optBytes)/(1<<10)), sim/scalingSteps)
	}
	return []*metrics.Table{tab}
}

// expR14b trains the hybrid-parallel engine across corpus skews (Zipf
// exponents) under the three routing disciplines — legacy
// capacity-drop, dropless token-choice, and expert-choice — reporting
// final loss, virtual step time, and overflow (dropped assignments;
// definitionally zero in the dropless modes). Higher skew
// concentrates routing on fewer experts, which is exactly where
// capacity truncation hurts.
func expR14b(*options) []*metrics.Table {
	const (
		steps, dp, ep, batch = 40, 2, 2, 4
		vocab, dim, seq      = 256, 64, 32
	)
	strat := parallel.Strategy{DataParallel: dp, ExpertParallel: ep}
	_, topo := twoSupernodes(strat.Size())
	tab := metrics.NewTable(
		fmt.Sprintf("R14b: routing discipline vs corpus skew (%d steps, dp=%d ep=%d, batch=%d/rank)", steps, dp, ep, batch),
		"zipf", "mode", "final-loss", "simsec/step", "overflow/step")
	for _, zipf := range []float64{0.8, 1.2, 1.6} {
		for _, mode := range []moe.RouteMode{moe.CapacityDrop, moe.TokenChoice, moe.ExpertChoice} {
			var loss float32
			var overflow float64
			w := engineRun{
				topo: topo, strat: strat,
				model: parallel.ModelConfig{
					GPT:            nn.GPTConfig{Vocab: vocab, Dim: dim, Heads: 4, Layers: 2, SeqLen: seq, FFNHidden: 4 * dim},
					NumExperts:     8,
					TopK:           2,
					CapacityFactor: 1.25, // tight enough that skewed batches overflow
					RouteMode:      mode,
					AuxLossWeight:  0.01,
					MoEHidden:      4 * dim,
					MoEEvery:       1,
					Algo:           moe.Auto,
					MoESimFLOPS:    2e9,
				},
				corpus: data.CorpusConfig{Vocab: vocab, SeqLen: seq, Zipf: zipf, Determinism: 0.85, ImageFrac: 0.25, Seed: 7},
				train: train.Config{
					Batch:     batch,
					Precision: sunway.FP32,
					Schedule:  train.WarmupCosine{Peak: 3e-3, Floor: 3e-4, Warmup: steps / 10, Total: steps},
					ClipNorm:  1,
				},
				decay: 0.01, seed: 7, steps: steps,
			}.run(func(_ *parallel.Engine, st parallel.StepStats) {
				loss = st.Loss
				overflow += float64(st.Overflow)
			})
			tab.AddRow(fmt.Sprintf("%.1f", zipf), mode.String(),
				fmt.Sprintf("%.4f", loss),
				fmt.Sprintf("%.3e", w.MaxTime()/steps),
				fmt.Sprintf("%.1f", overflow/steps))
		}
	}
	return []*metrics.Table{tab}
}
