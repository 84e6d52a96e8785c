// Package autotune is the simulation-driven deployment autotuner: it
// searches the feasible deployment space of a (scaled-down) BaGuaLu
// training configuration, ranks the survivors with the analytic
// perfmodel.PredictStep cost model, validates the ranking by actually
// running the top candidates through the simulated stack on the
// virtual clock, and extrapolates the winner to the full New
// Generation Sunway machine (96,000 nodes / 37M cores).
//
// The pipeline is deliberately staged from cheap to expensive:
//
//  1. EnumerateSpace walks every [pp, dp, ep] layout, batch size and
//     memory lever (ZeRO, selective recompute, host offload), and the
//     FP16 wire codec where the expert group crosses a supernode,
//     pruning points the typed perfmodel validation or the per-node
//     memory budget rejects. It lists only what the clocks can tell
//     apart: every candidate runs the two-phase exchange, which is
//     never slower, and the codec touches only cross-supernode rows.
//  2. Score walks each survivor's step once (perfmodel.PredictStep),
//     prices its goodput at its own best checkpoint interval under the
//     fault model, and sorts by effective step time.
//  3. Validate runs the top-k candidates for a few simulated steps
//     (ShortRun, on the deployment the walk priced) and measures
//     virtual seconds per step — ground truth the analytic ranking is
//     checked against (Kendall tau).
//  4. Extrapolate projects the measured winner to the full-scale
//     machine and model, escalating memory levers until the target
//     fits and re-optimizing the checkpoint interval for goodput.
//
// Everything is deterministic: one seeded RNG (tensor.RNG) threads
// through candidate sampling and validation-run seeding, and no
// wall-clock value enters any output, so two runs with the same seed
// emit byte-identical plans.
package autotune

import (
	"fmt"
	"sort"

	"bagualu/internal/parallel/layout"
	"bagualu/internal/perfmodel"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
)

// Config parameterizes one autotuning run. The zero value is not
// runnable; Run applies the defaults documented per field.
type Config struct {
	// Search-scale world. When Machine is nil, Run shapes a
	// TestMachine from Ranks, RanksPerNode and NodesPerSN (Ranks must
	// then divide evenly into nodes and supernodes).
	Machine      *sunway.Machine
	Ranks        int // default 8
	RanksPerNode int // default 2
	NodesPerSN   int // default 2

	// Spec is the scaled-down model the search measures. TargetSpec
	// is the full-scale model the winner is extrapolated to (default
	// BrainScaleSpecs' 174T entry) on Target (default the full New
	// Generation Sunway machine).
	Spec       perfmodel.ModelSpec
	TargetSpec perfmodel.ModelSpec
	Target     *sunway.Machine

	Efficiency float64 // sustained fraction of peak; default 0.3

	// Search axis. Layouts, memory levers and the codec are always
	// enumerated (the codec where it can matter, see EnumerateSpace);
	// the checkpoint interval is priced per candidate, not searched.
	Batches []int // default {2, 4}

	// PPMax caps the pipeline-parallel axis. Stage counts sweep the
	// divisors of Ranks up to PPMax that also divide Spec.Layers
	// (contiguous stages need equal layer chunks); default 1 keeps
	// the search flat.
	PPMax int

	// Fault model: expected steps between failures, at search scale
	// and at the target alike (default 200).
	MTBFSteps float64

	// Validation: how many analytically-ranked candidates to measure
	// and how long each measurement runs.
	TopK          int // default 5
	ValidateSteps int // default 4
	Warmup        int // default 1

	Seed uint64 // default 1; drives sampling and validation runs
}

// withDefaults fills unset fields and shapes the search machine.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.Ranks == 0 {
		cfg.Ranks = 8
	}
	if cfg.RanksPerNode == 0 {
		cfg.RanksPerNode = 2
	}
	if cfg.NodesPerSN == 0 {
		cfg.NodesPerSN = 2
	}
	if cfg.Machine == nil {
		if cfg.Ranks%cfg.RanksPerNode != 0 {
			return cfg, fmt.Errorf("autotune: ranks %d not divisible by ranks/node %d", cfg.Ranks, cfg.RanksPerNode)
		}
		nodes := cfg.Ranks / cfg.RanksPerNode
		if nodes%cfg.NodesPerSN != 0 {
			return cfg, fmt.Errorf("autotune: nodes %d not divisible by nodes/supernode %d", nodes, cfg.NodesPerSN)
		}
		cfg.Machine = sunway.TestMachine(nodes/cfg.NodesPerSN, cfg.NodesPerSN)
	}
	if got := cfg.Machine.Nodes() * cfg.RanksPerNode; got != cfg.Ranks {
		return cfg, fmt.Errorf("autotune: machine carries %d ranks, config says %d", got, cfg.Ranks)
	}
	if cfg.Spec.Vocab == 0 {
		cfg.Spec = SearchSpec()
	}
	if cfg.TargetSpec.Vocab == 0 {
		specs := perfmodel.BrainScaleSpecs()
		cfg.TargetSpec = specs[len(specs)-1] // 174T
	}
	if cfg.Target == nil {
		cfg.Target = sunway.NewGenerationSunway()
	}
	if cfg.Efficiency == 0 {
		cfg.Efficiency = 0.3
	}
	if len(cfg.Batches) == 0 {
		cfg.Batches = []int{2, 4}
	}
	if cfg.MTBFSteps == 0 {
		cfg.MTBFSteps = 200
	}
	if cfg.TopK == 0 {
		cfg.TopK = 5
	}
	if cfg.ValidateSteps == 0 {
		cfg.ValidateSteps = 4
	}
	if cfg.Warmup == 0 {
		cfg.Warmup = 1
	}
	if cfg.PPMax == 0 {
		cfg.PPMax = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg, nil
}

// SearchSpec is the default scaled-down MoE model the search measures:
// small enough that a ShortRun takes milliseconds, MoE-shaped enough
// that the layout, the batch and the memory levers move both clocks,
// and the codec does where the expert group crosses a supernode.
func SearchSpec() perfmodel.ModelSpec {
	return perfmodel.ModelSpec{
		Name: "search-tiny", Vocab: 128, Dim: 32, Heads: 2,
		Layers: 2, SeqLen: 16, FFNHidden: 64,
		NumExperts: 8, MoEHidden: 64, MoEEvery: 1, TopK: 2,
	}
}

// memoryLevers are the ZeRO / selective-recompute / offload
// combinations the search enumerates — the escalation ladder the R15
// capacity study measured, cheapest first.
var memoryLevers = []struct {
	zero    bool
	rcEvery int
	offload bool
}{
	{false, 0, false},
	{true, 0, false},
	{true, 1, false},
	{true, 1, true},
}

// EnumerateSpace walks the full search grid and prunes points the
// typed deployment validation or the per-node memory budget rejects.
// Every point runs at the search precision with the two-phase
// hierarchical exchange. The FP16 codec is listed only where the
// expert-parallel group spans more ranks than one supernode holds:
// inside one supernode it touches no row, and both clocks read the same
// step. It returns the feasible deployments in deterministic
// enumeration order, the total grid size, and how many points were
// pruned.
func EnumerateSpace(cfg Config) (feasible []perfmodel.Deployment, total, pruned int) {
	for pp := 1; pp <= cfg.PPMax; pp++ {
		// Divisor pruning: stages partition both the rank set and the
		// layer stack into equal contiguous chunks.
		if cfg.Ranks%pp != 0 || cfg.Spec.Layers%pp != 0 {
			continue
		}
		vpps := []int{1}
		if pp > 1 && cfg.Spec.Layers%(pp*2) == 0 {
			vpps = []int{1, 2}
		}
		perStage := cfg.Ranks / pp
		for _, vpp := range vpps {
			if cfg.Spec.Layers%(pp*vpp) != 0 {
				continue
			}
			for ep := 1; ep <= perStage; ep++ {
				if perStage%ep != 0 {
					continue
				}
				codecs := []bool{false}
				if ep > cfg.RanksPerNode*cfg.Machine.NodesPerSupernode {
					codecs = append(codecs, true)
				}
				for _, fp16 := range codecs {
					for _, batch := range cfg.Batches {
						for _, lv := range memoryLevers {
							total++
							d := perfmodel.Deployment{
								Machine: cfg.Machine, RanksPerNode: cfg.RanksPerNode,
								Grid:         layout.Grid{DataParallel: perStage / ep, ExpertParallel: ep, Pipeline: pp, Virtual: vpp},
								BatchPerRank: batch, Precision: searchPrecision,
								Efficiency: cfg.Efficiency,
								A2A:        perfmodel.A2AHierarchical,
								ZeRO:       lv.zero, RecomputeEvery: lv.rcEvery, OffloadOptState: lv.offload,
								WireFP16: fp16, OverlapA2A: true,
							}
							mb, err := d.Memory(cfg.Spec)
							if err != nil || !mb.Fits {
								pruned++
								continue
							}
							feasible = append(feasible, d)
						}
					}
				}
			}
		}
	}
	return feasible, total, pruned
}

// sampleCandidates draws at most n deployments without replacement
// using the run's seeded RNG, preserving enumeration order in the
// result so downstream stages stay deterministic.
func sampleCandidates(cands []perfmodel.Deployment, n int, rng *tensor.RNG) []perfmodel.Deployment {
	if len(cands) <= n {
		return cands
	}
	idx := make([]int, len(cands))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < n; i++ { // partial Fisher–Yates: first n slots
		j := i + rng.Intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	keep := append([]int(nil), idx[:n]...)
	sort.Ints(keep)
	out := make([]perfmodel.Deployment, n)
	for i, k := range keep {
		out[i] = cands[k]
	}
	return out
}

// Scored pairs a deployment with its analytic prediction, priced at
// its goodput-optimal checkpoint interval CkptEvery.
type Scored struct {
	perfmodel.Deployment
	CkptEvery int
	Pred      perfmodel.StepPrediction
}

// Score walks every deployment's step once with perfmodel.PredictStep,
// prices its goodput at its best checkpoint interval under the
// search-scale fault model, and returns the deployments sorted by that
// effective step time (checkpoint overhead and expected rework
// included), best first. The sort is stable, so ties keep enumeration
// order.
func Score(cfg Config, deps []perfmodel.Deployment) ([]Scored, error) {
	scored := make([]Scored, 0, len(deps))
	for _, d := range deps {
		p, err := d.PredictStep(cfg.Spec)
		if err != nil {
			return nil, fmt.Errorf("autotune: scoring %s: %w", d, err)
		}
		every, p := d.BestCkptInterval(p, cfg.MTBFSteps)
		scored = append(scored, Scored{Deployment: d, CkptEvery: every, Pred: p})
	}
	sort.SliceStable(scored, func(i, j int) bool {
		return scored[i].Pred.EffStepTime < scored[j].Pred.EffStepTime
	})
	return scored, nil
}
