package autotune

import (
	"bytes"
	"math"
	"testing"

	"bagualu/internal/mpi"
	"bagualu/internal/parallel"
	"bagualu/internal/parallel/layout"
	"bagualu/internal/perfmodel"
	"bagualu/internal/tensor"
)

// testConfig is a small, fast search: 8 ranks on a 2-supernode test
// machine, one batch size and one checkpoint interval so the space
// stays compact.
func testConfig() Config {
	return Config{
		Ranks: 8, RanksPerNode: 2, NodesPerSN: 2,
		Batches:       []int{2},
		CkptIntervals: []int{16},
		TopK:          4,
		ValidateSteps: 3,
		Warmup:        1,
		Seed:          1,
	}
}

func TestKendallTau(t *testing.T) {
	same := []float64{1, 2, 3, 4}
	if tau := KendallTau(same, []float64{10, 20, 30, 40}); tau != 1 {
		t.Fatalf("identical ordering tau = %v, want 1", tau)
	}
	if tau := KendallTau(same, []float64{40, 30, 20, 10}); tau != -1 {
		t.Fatalf("reversed ordering tau = %v, want -1", tau)
	}
	if tau := KendallTau(same, []float64{1}); tau != 0 {
		t.Fatalf("mismatched lengths tau = %v, want 0", tau)
	}
}

// TestPredictStepTracksMeasuredSimsec is the autotuner's key
// correctness artifact: across DP×EP layouts, wire codecs, and
// overlap settings, the analytic perfmodel.PredictStep ordering must
// agree with the simsec ordering the simulated stack actually
// measures. Kendall tau pins the agreement.
func TestPredictStepTracksMeasuredSimsec(t *testing.T) {
	cfg, err := testConfig().withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	cands := []Candidate{
		{Grid: layout.Grid{DataParallel: 8, ExpertParallel: 1}, Batch: 2, Codec: mpi.FP32Wire, CkptEvery: 16},
		{Grid: layout.Grid{DataParallel: 4, ExpertParallel: 2}, Batch: 2, Codec: mpi.FP32Wire, CkptEvery: 16},
		{Grid: layout.Grid{DataParallel: 2, ExpertParallel: 4}, Batch: 2, Codec: mpi.FP32Wire, CkptEvery: 16},
		{Grid: layout.Grid{DataParallel: 1, ExpertParallel: 8}, Batch: 2, Codec: mpi.FP32Wire, CkptEvery: 16},
		{Grid: layout.Grid{DataParallel: 1, ExpertParallel: 8}, Batch: 2, Codec: mpi.FP16Wire, CkptEvery: 16},
		{Grid: layout.Grid{DataParallel: 1, ExpertParallel: 8}, Batch: 2, Codec: mpi.FP16Wire, Overlap: true, CkptEvery: 16},
	}
	pred := make([]float64, len(cands))
	meas := make([]float64, len(cands))
	for i, c := range cands {
		p, err := cfg.deployment(c).PredictStep(cfg.Spec, perfmodel.FaultModel{})
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		res, err := parallel.ShortRun(cfg.shortRunConfig(c, 42))
		if err != nil {
			t.Fatalf("%s: %v", c, err)
		}
		pred[i], meas[i] = p.StepTime, res.SimPerStep
		t.Logf("%-28s pred %.6g  measured %.6g", c, pred[i], meas[i])
		if e := math.Abs(pred[i]-meas[i]) / meas[i]; e > 0.15 {
			t.Errorf("%s: predicted step %.6g s is %.1f%% off the measured %.6g s (bound 15%%)", c, pred[i], 100*e, meas[i])
		}
	}
	if tau := KendallTau(pred, meas); tau < 0.6 {
		t.Fatalf("analytic ranking does not track measured simsec: tau %.3f < 0.6\npred %v\nmeas %v",
			tau, pred, meas)
	}
}

// TestZeROSurchargeFlatInDepth: the engine binds one shard group per
// gradient bucket, but the buckets' reduce-scatters leave under the
// backward and the parameter all-gathers leave together, so a model with
// three times the buckets measures about the same surcharge over the
// replicated sync. The walk books every group's collectives as the
// engine issues them, so its surcharge is the simulator's at each depth.
// Should the simulator start charging a per-message gap, the measured
// surcharge grows with depth, and the walk must charge it per message.
func TestZeROSurchargeFlatInDepth(t *testing.T) {
	cfg, err := testConfig().withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	c := Candidate{Grid: layout.Grid{DataParallel: 8, ExpertParallel: 1}, Batch: 2, Codec: mpi.FP32Wire, CkptEvery: 16}
	var pred, meas [2]float64
	for i, layers := range []int{2, 8} {
		cfg.Spec.Layers = layers
		for _, zero := range []bool{false, true} {
			c.ZeRO = zero
			p, err := cfg.deployment(c).PredictStep(cfg.Spec, perfmodel.FaultModel{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := parallel.ShortRun(cfg.shortRunConfig(c, 42))
			if err != nil {
				t.Fatal(err)
			}
			sign := -1.0
			if zero {
				sign = 1
			}
			pred[i] += sign * p.StepTime
			meas[i] += sign * res.SimPerStep
		}
		t.Logf("L=%d: ZeRO surcharge predicted %.3g s, measured %.3g s", layers, pred[i], meas[i])
	}
	for i := range pred {
		if math.Abs(pred[i]-meas[i]) > 0.15*meas[i] {
			t.Fatalf("predicted ZeRO surcharge %.6g s is more than 15%% off the measured %.6g s", pred[i], meas[i])
		}
	}
	if meas[0] <= 0 || meas[1] > 1.5*meas[0] {
		t.Fatalf("measured ZeRO surcharge %.6g s at 2 layers, %.6g s at 8: it scales with the buckets now", meas[0], meas[1])
	}
}

// TestExtrapolateDecidesOverlapAtTarget: a search-scale winner without
// the exchange overlap still projects with it, since the target's
// expert group spans supernodes, where the overlap never prices slower;
// and it projects with the exchange, direct or hierarchical, the walk
// prices faster there.
func TestExtrapolateDecidesOverlapAtTarget(t *testing.T) {
	winner := Candidate{Grid: layout.Grid{DataParallel: 4, ExpertParallel: 2}, Batch: 2, Codec: mpi.FP32Wire, CkptEvery: 16}
	proj, err := Extrapolate(testConfig(), winner)
	if err != nil {
		t.Fatal(err)
	}
	if !proj.Dep.OverlapA2A {
		t.Fatal("projection left the exchange overlap off at a target whose expert group spans supernodes")
	}
	chosen, err := proj.Dep.PredictStep(proj.Spec, perfmodel.FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	other := proj.Dep
	other.A2A = perfmodel.A2AFlat
	if proj.Dep.A2A == perfmodel.A2AFlat {
		other.A2A = perfmodel.A2AHierarchical
	}
	alt, err := other.PredictStep(proj.Spec, perfmodel.FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	if alt.StepTime < chosen.StepTime {
		t.Fatalf("projection took the %v exchange (%.6g s a step) over the faster %v (%.6g s)", proj.Dep.A2A, chosen.StepTime, other.A2A, alt.StepTime)
	}
}

func TestEnumerateSpacePrunesInfeasible(t *testing.T) {
	cfg, err := testConfig().withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	// 7 experts: EP ∈ {2, 4, 8} cannot divide them — those layouts
	// must be pruned by the typed validation, not enumerated around.
	cfg.Spec.NumExperts = 7
	feasible, total, pruned := EnumerateSpace(cfg)
	if total != len(feasible)+pruned {
		t.Fatalf("space accounting broken: %d != %d + %d", total, len(feasible), pruned)
	}
	if pruned == 0 {
		t.Fatal("indivisible expert layouts were not pruned")
	}
	for _, c := range feasible {
		if c.ExpertParallel != 1 {
			t.Fatalf("feasible candidate %s has EP %d not dividing 7 experts", c, c.ExpertParallel)
		}
		if err := cfg.deployment(c).ValidateFor(cfg.Spec); err != nil {
			t.Fatalf("feasible candidate %s fails validation: %v", c, err)
		}
	}
}

func TestSampleCandidatesDeterministicAndOrdered(t *testing.T) {
	cfg, err := testConfig().withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	all, _, _ := EnumerateSpace(cfg)
	if len(all) < 10 {
		t.Fatalf("space too small for the sampling test: %d", len(all))
	}
	a := sampleCandidates(all, 5, tensor.NewRNG(7))
	b := sampleCandidates(all, 5, tensor.NewRNG(7))
	if len(a) != 5 {
		t.Fatalf("sampled %d, want 5", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed sampled different candidates: %v vs %v", a[i], b[i])
		}
	}
	// The sample preserves enumeration order.
	pos := -1
	for _, c := range a {
		found := -1
		for j, x := range all {
			if x == c {
				found = j
				break
			}
		}
		if found <= pos {
			t.Fatalf("sample out of enumeration order at %v", c)
		}
		pos = found
	}
}

// TestPlanDeterministicReplay pins the deterministic-replay property
// the verify.sh gate double-runs: the same config and seed must
// render byte-identical plans, text and CSV both.
func TestPlanDeterministicReplay(t *testing.T) {
	render := func() (string, string) {
		p, err := Run(testConfig())
		if err != nil {
			t.Fatal(err)
		}
		var txt, csv bytes.Buffer
		if err := p.Render(&txt, false); err != nil {
			t.Fatal(err)
		}
		if err := p.Render(&csv, true); err != nil {
			t.Fatal(err)
		}
		return txt.String(), csv.String()
	}
	txt1, csv1 := render()
	txt2, csv2 := render()
	if txt1 != txt2 {
		t.Fatalf("text plans differ between identical runs:\n--- a ---\n%s\n--- b ---\n%s", txt1, txt2)
	}
	if csv1 != csv2 {
		t.Fatal("csv plans differ between identical runs")
	}
	if txt1 == "" || csv1 == "" {
		t.Fatal("empty plan output")
	}
}

func TestRunProducesValidatedRankingAndProjection(t *testing.T) {
	p, err := Run(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if p.Sampled == 0 || len(p.Scored) != p.Sampled {
		t.Fatalf("scored %d of %d sampled", len(p.Scored), p.Sampled)
	}
	if len(p.Validated) == 0 || len(p.Validated) > p.Cfg.TopK {
		t.Fatalf("validated %d candidates, want 1..%d", len(p.Validated), p.Cfg.TopK)
	}
	for i := 1; i < len(p.Scored); i++ {
		if p.Scored[i].Pred.EffStepTime < p.Scored[i-1].Pred.EffStepTime {
			t.Fatal("scored ranking not sorted by effective step time")
		}
	}
	for _, v := range p.Validated {
		if v.Measured.SimPerStep <= 0 {
			t.Fatalf("candidate %s measured non-positive simsec", v.Candidate)
		}
	}
	if p.Proj.Pred.StepTime <= 0 || p.Proj.CkptEvery <= 0 {
		t.Fatalf("projection incomplete: %+v", p.Proj)
	}
}

// TestExtrapolate174TFitsFullMachine is the acceptance criterion: the
// projected 96,000-node / 174T configuration must pass the
// perfmodel.Memory feasibility check (with levers escalated as
// needed) and carry a finite goodput.
func TestExtrapolate174TFitsFullMachine(t *testing.T) {
	winner := Candidate{
		Grid: layout.Grid{DataParallel: 1, ExpertParallel: 8}, Batch: 2, Codec: mpi.FP16Wire, Overlap: true,
		ZeRO: true, RecomputeEvery: 1, CkptEvery: 16,
	}
	proj, err := Extrapolate(testConfig(), winner)
	if err != nil {
		t.Fatal(err)
	}
	if nodes := proj.Machine.Nodes(); nodes != 96000 {
		t.Fatalf("target machine has %d nodes, want 96000", nodes)
	}
	if total := proj.Spec.TotalParams(); total < 170e12 {
		t.Fatalf("target model has %.3g params, want ~174T", float64(total))
	}
	ranks := proj.Machine.Nodes() * proj.Dep.RanksPerNode
	if proj.Dep.DataParallel*proj.Dep.ExpertParallel != ranks {
		t.Fatalf("grid dp%d x ep%d does not cover %d ranks",
			proj.Dep.DataParallel, proj.Dep.ExpertParallel, ranks)
	}
	if proj.Spec.NumExperts%proj.Dep.ExpertParallel != 0 {
		t.Fatalf("EP %d does not divide %d experts", proj.Dep.ExpertParallel, proj.Spec.NumExperts)
	}
	if !proj.Pred.Mem.Fits {
		t.Fatalf("projected config does not fit the node budget: %.1f GiB", proj.Pred.Mem.TotalGiB)
	}
	if proj.Pred.Goodput <= 0 || proj.Pred.Goodput > 1 {
		t.Fatalf("projected goodput %v out of (0,1]", proj.Pred.Goodput)
	}
	if proj.EFLOPS() <= 0 {
		t.Fatalf("projected EFLOPS %v", proj.EFLOPS())
	}
	if proj.MaxParams < proj.Spec.TotalParams() {
		t.Fatalf("max trainable params %d below the projected model %d",
			proj.MaxParams, proj.Spec.TotalParams())
	}
}
