package main

import (
	"fmt"

	"bagualu/internal/autotune"
	"bagualu/internal/data"
	"bagualu/internal/metrics"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/parallel"
	"bagualu/internal/perfmodel"
	"bagualu/internal/sunway"
	"bagualu/internal/train"
)

// pipeLayout is one point of the R19 depth sweep.
type pipeLayout struct {
	dp, ep, pp, vpp int
}

func (l pipeLayout) String() string {
	s := fmt.Sprintf("dp%dxep%d", l.dp, l.ep)
	if l.pp > 1 {
		s += fmt.Sprintf("xpp%d", l.pp)
		if l.vpp > 1 {
			s += fmt.Sprintf("v%d", l.vpp)
		}
	}
	return s
}

// expR19: pipeline parallelism vs the flat MoDa grid across model
// depth. At a fixed rank budget it measures token-fair short runs
// (same tokens per optimizer step) of the best flat DP×EP layouts
// against folded [pp, dp, ep] layouts on the virtual clock, alongside
// the analytic perfmodel prediction, and marks each depth's measured
// winner.
func expR19(o *options) []*metrics.Table {
	const (
		batch        = 2   // sequences per rank per micro-batch
		steps        = 4   // measured steps per run
		eff          = 0.3 // sustained fraction of node peak
		ranksPerNode = 2
	)
	machine := sunway.TestMachine(2, 2) // 4 nodes, 8 ranks
	ranks := machine.Nodes() * ranksPerNode

	table := metrics.NewTable(
		fmt.Sprintf("R19: pipeline folding vs flat MoDa across depth (%d ranks, token-fair M=PP)", ranks),
		"layers", "layout", "pred-step(s)", "sim/step(s)", "tokens/simsec", "winner")

	for _, layers := range []int{2, 4, 8, 16} {
		spec := autotune.SearchSpec()
		spec.Layers = layers

		layouts := []pipeLayout{
			{dp: ranks, ep: 1}, {dp: ranks / 2, ep: 2}, {dp: ranks / 4, ep: 4},
		}
		for _, pp := range []int{2, 4} {
			if layers%pp != 0 || ranks%pp != 0 {
				continue
			}
			per := ranks / pp
			layouts = append(layouts, pipeLayout{dp: per, ep: 1, pp: pp}, pipeLayout{dp: per / 2, ep: 2, pp: pp})
			if layers%(pp*2) == 0 {
				layouts = append(layouts, pipeLayout{dp: per, ep: 1, pp: pp, vpp: 2})
			}
		}

		type row struct {
			l          pipeLayout
			pred, meas float64
		}
		rows := make([]row, 0, len(layouts))
		best := -1
		for _, l := range layouts {
			d := perfmodel.Deployment{
				Machine: machine, RanksPerNode: ranksPerNode,
				DataParallel: l.dp, ExpertParallel: l.ep,
				PipelineParallel: l.pp, VirtualStages: l.vpp,
				BatchPerRank: batch, Precision: sunway.FP32,
				Efficiency: eff, A2A: perfmodel.A2AHierarchical,
			}
			// Folds run the ZeRO-sharded optimizer; every layout keeps
			// its activations (no block recomputes).
			d.ZeRO = l.pp > 1
			pred := must(d.PredictStep(spec, perfmodel.FaultModel{}))

			strat := parallel.Strategy{DataParallel: l.dp, ExpertParallel: l.ep,
				Pipeline: l.pp, Virtual: l.vpp}
			tc := train.Config{Batch: batch, Precision: sunway.FP32}
			if l.pp > 1 {
				tc.Accum = l.pp
			}
			res := must(parallel.ShortRun(parallel.ShortRunConfig{
				Machine: machine, RanksPerNode: ranksPerNode,
				Strategy: strat,
				Model: parallel.ModelConfig{
					GPT: nn.GPTConfig{
						Vocab: spec.Vocab, Dim: spec.Dim, Heads: spec.Heads,
						Layers: spec.Layers, SeqLen: spec.SeqLen, FFNHidden: spec.FFNHidden,
					},
					NumExperts: spec.NumExperts, TopK: spec.TopK,
					MoEHidden: spec.MoEHidden, MoEEvery: spec.MoEEvery,
					CapacityFactor: 1.25, AuxLossWeight: 0.01,
					Comm: moe.CommConfig{Codec: mpi.FP32Wire},
				},
				Corpus: data.CorpusConfig{
					Vocab: spec.Vocab, SeqLen: spec.SeqLen, Zipf: 1, Determinism: 0.8,
				},
				Train:      tc,
				OptFor:     train.OptimizerFactory(l.pp > 1, 0),
				Steps:      steps,
				Warmup:     1,
				Seed:       o.seed,
				Efficiency: eff,
			}))
			rows = append(rows, row{l, pred.StepTime, res.SimPerStep})
			if best < 0 || res.SimPerStep < rows[best].meas {
				best = len(rows) - 1
			}
		}
		// Tokens per optimizer step are layout-invariant (token-fair):
		// perStage ranks × batch × M micros at PP equals ranks × batch flat.
		tokens := float64(ranks * batch * spec.SeqLen)
		for i, r := range rows {
			mark := ""
			if i == best {
				mark = "<-- best"
			}
			table.AddRow(layers, r.l.String(),
				fmt.Sprintf("%.6g", r.pred), fmt.Sprintf("%.6g", r.meas),
				fmt.Sprintf("%.4g", tokens/r.meas), mark)
		}
	}
	return []*metrics.Table{table}
}
