package main

import (
	"fmt"

	"bagualu/internal/metrics"
	"bagualu/internal/parallel/layout"
	"bagualu/internal/perfmodel"
	"bagualu/internal/sunway"
)

// The full-machine analytic experiments project the brain-scale
// models onto the 96,000-node / 37-million-core New Generation Sunway
// at GEMM efficiency 0.35. It is not the repo's only efficiency:
// autotune's default, R19 (exp_pipe.go) and the scaling harness
// (exp_scaling.go) price at 0.3, so R7 and R17c project at different
// rates. Making it one constant of the machine is ROADMAP item 32.
const (
	perfEfficiency = 0.35 // sustained fraction of node peak for GEMM kernels
	perfBatch      = 4    // sequences per rank per step
)

// fullMachine deploys on every node of machine at one rank per node:
// mixed precision, hierarchical a2a, ZeRO.
func fullMachine(machine *sunway.Machine, dp, ep int) perfmodel.Deployment {
	return perfmodel.Deployment{
		Machine: machine, RanksPerNode: 1, Grid: layout.Grid{DataParallel: dp, ExpertParallel: ep},
		BatchPerRank: perfBatch, Precision: sunway.Mixed, Efficiency: perfEfficiency,
		A2A: perfmodel.A2AHierarchical, ZeRO: true,
	}
}

func expR1(*options) []*metrics.Table {
	cfgs := metrics.NewTable("R1: brain-scale model configurations (reconstructed)",
		"model", "dim", "layers", "moe-layers", "experts/layer", "params", "active/token")
	for _, s := range perfmodel.BrainScaleSpecs() {
		cfgs.AddRow(s.Name, s.Dim, s.Layers, s.MoELayers(), s.NumExperts,
			fmt.Sprintf("%.3gT", float64(s.TotalParams())/1e12),
			fmt.Sprintf("%.3gB", float64(s.ActiveParamsPerToken())/1e9))
	}
	return []*metrics.Table{cfgs}
}

// expR7: full-machine projection per precision and model — the
// paper's headline mixed-precision EFLOPS figure.
func expR7(*options) []*metrics.Table {
	machine := sunway.NewGenerationSunway()
	proj := metrics.NewTable("R7: full-machine projection (96,000 nodes, hierarchical a2a, ZeRO)",
		"model", "precision", "step-time(s)", "compute(s)", "a2a(s)", "sync(s)",
		"tokens/s", "sustained", "peak-frac", "mem/node(GiB)", "fits")
	for _, spec := range perfmodel.BrainScaleSpecs() {
		for _, prec := range []sunway.Precision{sunway.FP32, sunway.Mixed} {
			// EP must divide both the rank count and the expert
			// count; the remaining ranks form data-parallel replicas.
			ep := gcd(machine.Nodes(), spec.NumExperts)
			d := fullMachine(machine, machine.Nodes()/ep, ep)
			d.Precision = prec
			rep := must(d.PredictStep(spec))
			proj.AddRow(spec.Name, prec.String(),
				rep.StepTime, rep.DenseCompute+rep.ExpertCompute, rep.A2A, rep.Sync,
				fmt.Sprintf("%.3g", rep.TokensPerSec),
				fmt.Sprintf("%.3g FLOPS (%.2f EFLOPS)", rep.SustainedFlops, rep.SustainedFlops/1e18),
				fmt.Sprintf("%.1f%%", 100*rep.PeakFraction),
				fmt.Sprintf("%.1f", rep.Mem.TotalGiB), rep.Mem.Fits)
		}
	}
	return []*metrics.Table{proj}
}

// expR7b: flat vs hierarchical all-to-all at full machine scale.
func expR7b(*options) []*metrics.Table {
	machine := sunway.NewGenerationSunway()
	abl := metrics.NewTable("R7b: a2a strategy ablation (174T, mixed precision)",
		"a2a", "step-time(s)", "a2a-time(s)", "sustained-EFLOPS")
	for _, a := range []perfmodel.A2AStrategy{perfmodel.A2AFlat, perfmodel.A2AHierarchical} {
		d := fullMachine(machine, 1, machine.Nodes())
		d.A2A = a
		rep := must(d.PredictStep(perfmodel.BrainScaleSpecs()[2]))
		abl.AddRow(a.String(), rep.StepTime, rep.A2A, rep.SustainedFlops/1e18)
	}
	return []*metrics.Table{abl}
}

// expR2proj: weak scaling of the 1.93T model from 1,536 to 96,000
// nodes (experts scale with the machine so per-node work is constant
// — the paper's weak-scaling protocol).
func expR2proj(*options) []*metrics.Table {
	weak := metrics.NewTable("R2-proj: projected weak scaling, 1.93T-class model, mixed precision",
		"nodes", "cores", "experts", "step-time(s)", "tokens/s", "sustained-EFLOPS", "efficiency")
	base := 0.0
	spec := perfmodel.BrainScaleSpecs()[0]
	for _, nodes := range []int{1536, 6144, 24576, 96000} {
		m := sunway.NewGenerationSunway()
		m.Supernodes = nodes / m.NodesPerSupernode
		spec.NumExperts = nodes // one expert per node: experts ∝ machine
		rep := must(fullMachine(m, 1, nodes).PredictStep(spec))
		perNode := rep.TokensPerSec / float64(nodes)
		if base == 0 {
			base = perNode
		}
		weak.AddRow(nodes, m.Cores(), spec.NumExperts, rep.StepTime,
			fmt.Sprintf("%.3g", rep.TokensPerSec),
			fmt.Sprintf("%.2f", rep.SustainedFlops/1e18),
			fmt.Sprintf("%.2f", perNode/base))
	}
	return []*metrics.Table{weak}
}

// expR15: analytic max trainable parameters per 96 GiB node, per
// memory-wall lever, on a 64-node supernode slice at mixed precision
// (bisected over model width by perfmodel.Memory).
func expR15(*options) []*metrics.Table {
	dep := perfmodel.Deployment{
		Machine: sunway.TestMachine(1, 64), RanksPerNode: 1,
		Grid:         layout.Grid{DataParallel: 64, ExpertParallel: 1},
		BatchPerRank: perfBatch, Precision: sunway.Mixed, Efficiency: perfEfficiency,
		A2A: perfmodel.A2AHierarchical,
	}
	spec := perfmodel.ModelSpec{
		Name: "r15", Vocab: 50304, Dim: 1024, Heads: 16, Layers: 24,
		SeqLen: 1024, FFNHidden: 4096,
	}
	tab := metrics.NewTable("R15: max trainable params per node (mixed precision, 64 nodes, bisected width)",
		"config", "max-params", "dim", "mem GiB/node", "step(s)", "vs-baseline")
	var base float64
	for _, lever := range []struct {
		name                   string
		zero, recompute, offld bool
	}{
		{name: "baseline (replicated opt)"},
		{name: "+zero", zero: true},
		{name: "+zero +recompute", zero: true, recompute: true},
		{name: "+zero +recompute +offload", zero: true, recompute: true, offld: true},
	} {
		dd := dep
		dd.ZeRO, dd.OffloadOptState = lever.zero, lever.offld
		if lever.recompute {
			dd.RecomputeEvery = 1
		}
		n, best, err := dd.MaxTrainableParams(spec)
		check(err)
		rep := must(dd.PredictStep(best))
		if base == 0 {
			base = float64(n)
		}
		tab.AddRow(lever.name, fmt.Sprintf("%.3gB", float64(n)/1e9), best.Dim,
			fmt.Sprintf("%.1f", rep.Mem.TotalGiB), fmt.Sprintf("%.3g", rep.StepTime),
			fmt.Sprintf("%.2fx", float64(n)/base))
	}
	return []*metrics.Table{tab}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
