package autotune

// Plan orchestration: enumerate → score → validate → extrapolate,
// plus the R17 report tables. Every figure in a plan derives from the
// seeded RNG and the virtual clock — no wall time — so rendering the
// same config twice produces byte-identical output (pinned by
// TestPlanDeterministicReplay and the verify.sh double-run gate).

import (
	"fmt"
	"io"
	"math"

	"bagualu/internal/metrics"
	"bagualu/internal/parallel/layout"
	"bagualu/internal/perfmodel"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
)

// The full-scale target runs one rank per node (one expert host per
// node) at the paper's mixed precision; a search scores at most
// maxCandidates points, sampling larger spaces without replacement with
// the run's seeded RNG. The search scale measures and prices at FP32:
// both clocks send the exchange, the gradient sync and the
// stage-boundary sends at the same widths under Mixed too, but the
// search's tau and top-1 agreement have been validated at FP32 only, not
// yet at Mixed at every pipeline depth.
const (
	targetRanksPerNode = 1
	targetPrecision    = sunway.Mixed
	searchPrecision    = sunway.FP32
	maxCandidates      = 2048
)

// Projection is the winner extrapolated to the full-scale machine.
type Projection struct {
	Machine *sunway.Machine
	Spec    perfmodel.ModelSpec
	Dep     perfmodel.Deployment // Dep.A2A names the exchange the target prices faster

	// Escalated reports whether memory levers beyond the winner's own
	// had to be switched on to fit the target model.
	Escalated bool

	CkptEvery int // goodput-optimal checkpoint interval at target MTBF
	Pred      perfmodel.StepPrediction

	MaxParams int64 // largest trainable scale of this deployment (expert scaling)
}

// EFLOPS is the projected sustained performance in exaflop/s.
func (p Projection) EFLOPS() float64 { return p.Pred.SustainedFlops / 1e18 }

// Plan is the full outcome of one autotuning run.
type Plan struct {
	Cfg Config // post-defaults

	SpaceSize int // full candidate grid
	Pruned    int // rejected by validation or memory budget
	Sampled   int // scored after seeded sampling

	Scored    []Scored    // analytic ranking, best first
	Validated []Validated // measured top-k, analytic order

	Tau      float64 // Kendall tau: predicted step time vs measured simsec
	TopMatch bool    // predicted fastest == measured fastest

	Winner perfmodel.Deployment // measured-best candidate
	Proj   Projection
}

// Run executes the full pipeline and returns the plan.
func Run(cfg Config) (*Plan, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(cfg.Seed)
	feasible, total, pruned := EnumerateSpace(cfg)
	if len(feasible) == 0 {
		return nil, fmt.Errorf("autotune: no feasible candidate in a space of %d (all %d pruned)", total, pruned)
	}
	feasible = sampleCandidates(feasible, maxCandidates, rng)
	scored, err := Score(cfg, feasible)
	if err != nil {
		return nil, err
	}
	validated, err := Validate(cfg, scored, rng)
	if err != nil {
		return nil, err
	}
	tau, topMatch := agreement(validated)
	winner := validated[0]
	for _, v := range validated[1:] {
		if v.Measured.SimPerStep < winner.Measured.SimPerStep {
			winner = v
		}
	}
	proj, err := Extrapolate(cfg, winner.Deployment)
	if err != nil {
		return nil, err
	}
	return &Plan{
		Cfg:       cfg,
		SpaceSize: total, Pruned: pruned, Sampled: len(scored),
		Scored: scored, Validated: validated,
		Tau: tau, TopMatch: topMatch,
		Winner: winner.Deployment, Proj: proj,
	}, nil
}

// gcd of two positive ints.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Extrapolate projects a winning deployment to the target machine and
// model: the expert-parallel width becomes the largest divisor of the
// per-layer expert count the rank count admits, memory levers
// escalate (ZeRO → full recompute → host offload) until the target
// fits the node budget, the exchange strategy is re-decided by the
// target's step time (two walks, both with the two-phase exchange), and
// the checkpoint interval is re-optimized for goodput under the target
// MTBF from the chosen walk.
func Extrapolate(cfg Config, winner perfmodel.Deployment) (Projection, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Projection{}, err
	}
	m, spec := cfg.Target, cfg.TargetSpec
	ranks := m.Nodes() * targetRanksPerNode
	ep := gcd(ranks, spec.NumExperts)
	dep := perfmodel.Deployment{
		Machine: m, RanksPerNode: targetRanksPerNode,
		Grid:         layout.Grid{DataParallel: ranks / ep, ExpertParallel: ep},
		BatchPerRank: winner.BatchPerRank, Precision: targetPrecision,
		Efficiency:      cfg.Efficiency,
		ZeRO:            winner.ZeRO,
		RecomputeEvery:  winner.RecomputeEvery,
		OffloadOptState: winner.OffloadOptState,
		WireFP16:        winner.WireFP16,
	}
	// Escalate memory levers until the target model fits per node.
	escalated := false
	for {
		mb, err := dep.Memory(spec)
		if err != nil {
			return Projection{}, err
		}
		if mb.Fits {
			break
		}
		switch {
		case !dep.ZeRO:
			dep.ZeRO = true
		case dep.RecomputeEvery != 1:
			dep.RecomputeEvery = 1
		case !dep.OffloadOptState:
			dep.OffloadOptState = true
		default:
			return Projection{}, fmt.Errorf(
				"autotune: %s does not fit %d×%.0f GiB nodes even with every memory lever (needs %.1f GiB/node)",
				spec, m.Nodes(), m.NodeMemGiB, mb.TotalGiB)
		}
		escalated = true
	}
	// Take the exchange, direct or hierarchical, that the target prices
	// fastest: a tie keeps the hierarchical one.
	dep.OverlapA2A = true
	step, base := perfmodel.StepPrediction{StepTime: math.Inf(1)}, dep
	for _, a := range []perfmodel.A2AStrategy{perfmodel.A2AHierarchical, perfmodel.A2AFlat} {
		d := base
		d.A2A = a
		p, err := d.PredictStep(spec)
		if err != nil {
			return Projection{}, err
		}
		if p.StepTime < step.StepTime {
			step, dep = p, d
		}
	}
	proj := Projection{Machine: m, Spec: spec, Dep: dep, Escalated: escalated}
	proj.CkptEvery, proj.Pred = dep.BestCkptInterval(step, cfg.MTBFSteps)
	maxP, _, err := dep.MaxTrainableParams(spec)
	if err != nil {
		return Projection{}, err
	}
	proj.MaxParams = maxP
	return proj, nil
}

// rankingRows caps how many analytic candidates the report tabulates.
const rankingRows = 16

// Tables renders the plan as the R17 experiment tables: the analytic
// candidate ranking, the analytic-vs-measured validation, and the
// full-scale projection.
func (p *Plan) Tables() []*metrics.Table {
	t1 := metrics.NewTable(
		fmt.Sprintf("R17a: analytic candidate ranking (top %d of %d scored; space %d, pruned %d)",
			min(rankingRows, len(p.Scored)), p.Sampled, p.SpaceSize, p.Pruned),
		"rank", "candidate", "pred-step(s)", "ckpt(steps)", "goodput", "eff-step(s)", "sync(MiB)", "a2a(MiB)", "mem(GiB)")
	for i, s := range p.Scored {
		if i >= rankingRows {
			break
		}
		t1.AddRow(i+1, s.String(), s.Pred.StepTime, s.CkptEvery, s.Pred.Goodput,
			s.Pred.EffStepTime, s.Pred.SyncBytes/(1<<20), s.Pred.A2ABytes/(1<<20),
			s.Pred.Mem.TotalGiB)
	}

	t2 := metrics.NewTable(
		fmt.Sprintf("R17b: analytic vs measured (top-%d short runs, %d steps each; kendall-tau %.3f, top-1 match %v)",
			len(p.Validated), p.Cfg.ValidateSteps, p.Tau, p.TopMatch),
		"pred-rank", "candidate", "pred-step(s)", "sim/step(s)", "meas-rank", "tokens/simsec", "xsn(MiB)")
	measRank := make([]int, len(p.Validated))
	for i := range p.Validated {
		r := 1
		for j := range p.Validated {
			if p.Validated[j].Measured.SimPerStep < p.Validated[i].Measured.SimPerStep {
				r++
			}
		}
		measRank[i] = r
	}
	for i, v := range p.Validated {
		t2.AddRow(i+1, v.String(), v.Pred.StepTime, v.Measured.SimPerStep,
			measRank[i], v.Measured.TokensPerSimSec, float64(v.Measured.InterSNBytes)/(1<<20))
	}

	pr := p.Proj
	t3 := metrics.NewTable("R17c: winner projected to full scale", "field", "value")
	t3.AddRow("machine", fmt.Sprintf("%d nodes / %d cores", pr.Machine.Nodes(), pr.Machine.Cores()))
	t3.AddRow("model", pr.Spec.String())
	t3.AddRow("winner (search scale)", p.Winner.String())
	t3.AddRow("grid", fmt.Sprintf("dp%d x ep%d", pr.Dep.DataParallel, pr.Dep.ExpertParallel))
	t3.AddRow("precision", pr.Dep.Precision.String())
	t3.AddRow("wire codec", map[bool]string{true: "fp16", false: "fp32"}[pr.Dep.WireFP16])
	t3.AddRow("a2a exchange", pr.Dep.A2A.String())
	t3.AddRow("a2a overlap", pr.Dep.OverlapA2A)
	t3.AddRow("zero / recompute every / offload", fmt.Sprintf("%v / %d / %v (escalated %v)",
		pr.Dep.ZeRO, pr.Dep.RecomputeEvery, pr.Dep.OffloadOptState, pr.Escalated))
	t3.AddRow("ckpt interval (steps)", pr.CkptEvery)
	t3.AddRow("step time (s)", pr.Pred.StepTime)
	t3.AddRow("goodput", pr.Pred.Goodput)
	t3.AddRow("effective step (s)", pr.Pred.EffStepTime)
	t3.AddRow("tokens/s", pr.Pred.TokensPerSec)
	t3.AddRow("sustained EFLOPS", pr.EFLOPS())
	t3.AddRow("peak fraction", pr.Pred.PeakFraction)
	t3.AddRow("mem/node (GiB)", pr.Pred.Mem.TotalGiB)
	t3.AddRow("fits node budget", pr.Pred.Mem.Fits)
	t3.AddRow("max trainable params", fmt.Sprintf("%.3gT", float64(pr.MaxParams)/1e12))
	return []*metrics.Table{t1, t2, t3}
}

// Render writes the plan's tables as text or CSV. Output is a pure
// function of the config (seed included): no wall-clock value ever
// enters it, so identical runs are byte-identical.
func (p *Plan) Render(w io.Writer, csv bool) error {
	for _, t := range p.Tables() {
		var err error
		if csv {
			_, _ = fmt.Fprintf(w, "# %s\n", t.Title)
			err = t.WriteCSV(w)
		} else {
			err = t.WriteText(w)
		}
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
