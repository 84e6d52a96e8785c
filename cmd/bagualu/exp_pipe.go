package main

import (
	"fmt"

	"bagualu/internal/autotune"
	"bagualu/internal/metrics"
	"bagualu/internal/parallel"
	"bagualu/internal/perfmodel"
	"bagualu/internal/sunway"
)

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

		grids := []parallel.Strategy{
			{DataParallel: ranks, ExpertParallel: 1},
			{DataParallel: ranks / 2, ExpertParallel: 2},
			{DataParallel: ranks / 4, ExpertParallel: 4},
		}
		for _, pp := range []int{2, 4} {
			if layers%pp != 0 || ranks%pp != 0 {
				continue
			}
			per := ranks / pp
			grids = append(grids,
				parallel.Strategy{DataParallel: per, ExpertParallel: 1, Pipeline: pp},
				parallel.Strategy{DataParallel: per / 2, ExpertParallel: 2, Pipeline: pp})
			if layers%(pp*2) == 0 {
				grids = append(grids, parallel.Strategy{DataParallel: per, ExpertParallel: 1, Pipeline: pp, Virtual: 2})
			}
		}

		type row struct {
			g          parallel.Strategy
			pred, meas float64
		}
		rows := make([]row, 0, len(grids))
		best := -1
		for _, g := range grids {
			// Folds run the ZeRO-sharded optimizer; every layout keeps
			// its activations (no block recomputes) and blocks on the
			// exchange. The walk prices the deployment the run measures.
			d := perfmodel.Deployment{
				Machine: machine, RanksPerNode: ranksPerNode, Grid: g,
				BatchPerRank: batch, Precision: sunway.FP32,
				Efficiency: eff, A2A: perfmodel.A2AHierarchical,
				ZeRO: g.PP() > 1,
			}
			pred := must(d.PredictStep(spec))
			res := must(autotune.ShortRun(d, spec, steps, 1, o.seed))
			rows = append(rows, row{g, pred.StepTime, res.SimPerStep})
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
			table.AddRow(layers, r.g.String(),
				fmt.Sprintf("%.6g", r.pred), fmt.Sprintf("%.6g", r.meas),
				fmt.Sprintf("%.4g", tokens/r.meas), mark)
		}
	}
	return []*metrics.Table{table}
}
