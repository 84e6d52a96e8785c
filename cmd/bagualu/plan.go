package main

import (
	"flag"
	"fmt"
	"io"
	"math"

	"bagualu/internal/autotune"
	"bagualu/internal/metrics"
	"bagualu/internal/perfmodel"
	"bagualu/internal/sunway"
)

// planBudget is the full-scale target the autotuner projects to. The
// defaults are the R17 table: the whole machine, the 174T model.
type planBudget struct {
	nodes  int
	mtbf   float64
	params float64
	ppMax  int
}

var r17Budget = planBudget{nodes: 96000, mtbf: 400, params: 174e12, ppMax: 1}

// planSearch is the search scale: 8 simulated ranks, 2 per node, 2
// nodes per supernode, seed 1.
var planSearch = options{machine: machineFlags{8, 2, 2}, seed: 1}

// runPlan is `bagualu plan`: the simulation-driven deployment
// autotuner (internal/autotune). It emits the analytic candidate
// ranking, the analytic-vs-measured validation of its top candidates
// on the virtual clock, and the winner projected to the target
// budget. Output is a pure function of the flags: two runs with the
// same seed emit byte-identical plans.
func runPlan(args []string, out io.Writer) {
	fs := flag.NewFlagSet("bagualu plan", flag.ExitOnError)
	b, o, csv := r17Budget, planSearch, false
	fs.IntVar(&b.nodes, "nodes", b.nodes, "target machine size in nodes")
	fs.Float64Var(&b.mtbf, "mtbf", b.mtbf, "expected steps between failures (search and target)")
	fs.Float64Var(&b.params, "params", b.params, "target parameter count; nearest brain-scale spec is used")
	fs.IntVar(&b.ppMax, "pp-max", b.ppMax, "cap on the pipeline-parallel axis (1 = flat MoDa search)")
	o.machine.register(fs)
	layersFlag(fs, &o.model.layers)
	seedFlag(fs, &o.seed)
	csvFlag(fs, &csv)
	fs.Parse(args)
	check(autotunePlan(b, &o).Render(out, csv))
}

// expR17: the autotuner at the full-machine, 174T budget.
func expR17(o *options) []*metrics.Table { return autotunePlan(r17Budget, o).Tables() }

// autotunePlan runs the autotuner for budget b at the search scale o.
func autotunePlan(b planBudget, o *options) *autotune.Plan {
	target := sunway.NewGenerationSunway()
	nps := min(target.NodesPerSupernode, b.nodes)
	if b.nodes <= 0 || b.nodes%nps != 0 {
		check(fmt.Errorf("-nodes %d must be a positive multiple of %d", b.nodes, nps))
	}
	target.NodesPerSupernode = nps
	target.Supernodes = b.nodes / nps

	// Pick the brain-scale spec whose total parameter count is nearest
	// the requested budget.
	specs := perfmodel.BrainScaleSpecs()
	spec := specs[0]
	for _, s := range specs[1:] {
		if math.Abs(float64(s.TotalParams())-b.params) < math.Abs(float64(spec.TotalParams())-b.params) {
			spec = s
		}
	}

	cfg := autotune.Config{
		Ranks: o.machine.ranks, RanksPerNode: o.machine.rpn, NodesPerSN: o.machine.perSN,
		Target: target, TargetSpec: spec,
		PPMax:     b.ppMax,
		MTBFSteps: b.mtbf,
		Seed:      o.seed,
	}
	if o.model.layers > 0 {
		cfg.Spec = autotune.SearchSpec()
		cfg.Spec.Layers = o.model.layers
	}
	return must(autotune.Run(cfg))
}
