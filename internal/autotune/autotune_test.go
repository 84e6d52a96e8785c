package autotune

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"bagualu/internal/perfmodel"
	"bagualu/internal/tensor"
)

// testConfig is a small, fast search: 8 ranks on a 2-supernode test
// machine and one batch size, so the space stays compact.
func testConfig() Config {
	return Config{
		Ranks: 8, RanksPerNode: 2, NodesPerSN: 2,
		Batches:       []int{2},
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

// searched is the deployment the search lists under label (its
// String), with cfg's batches widened to 2 and 4 and its pipeline to
// every depth.
func searched(t *testing.T, cfg Config, label string) perfmodel.Deployment {
	t.Helper()
	cfg.Batches, cfg.PPMax = []int{2, 4}, cfg.Ranks
	all, _, _ := EnumerateSpace(cfg)
	for _, d := range all {
		if d.String() == label {
			return d
		}
	}
	t.Fatalf("the search lists no %s", label)
	return perfmodel.Deployment{}
}

// TestPredictStepTracksMeasuredSimsec is the autotuner's key
// correctness artifact: across DP×EP layouts, wire codecs and batch
// sizes, the analytic perfmodel.PredictStep ordering must agree with
// the simsec ordering the simulated stack actually measures. Kendall
// tau pins the agreement.
func TestPredictStepTracksMeasuredSimsec(t *testing.T) {
	cfg, err := testConfig().withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{
		"dp8xep1 b2 fp32", "dp4xep2 b2 fp32", "dp2xep4 b2 fp32",
		"dp1xep8 b2 fp32", "dp1xep8 b2 fp16", "dp1xep8 b4 fp16",
	}
	pred := make([]float64, len(labels))
	meas := make([]float64, len(labels))
	for i, label := range labels {
		d := searched(t, cfg, label)
		p, err := d.PredictStep(cfg.Spec)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		res, err := ShortRun(d, cfg.Spec, cfg.ValidateSteps, cfg.Warmup, 42)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		pred[i], meas[i] = p.StepTime, res.SimPerStep
		t.Logf("%-28s pred %.6g  measured %.6g", d, pred[i], meas[i])
		if e := math.Abs(pred[i]-meas[i]) / meas[i]; e > 0.15 {
			t.Errorf("%s: predicted step %.6g s is %.1f%% off the measured %.6g s (bound 15%%)", d, pred[i], 100*e, meas[i])
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
	d := searched(t, cfg, "dp8xep1 b2 fp32")
	var pred, meas [2]float64
	for i, layers := range []int{2, 8} {
		cfg.Spec.Layers = layers
		for _, zero := range []bool{false, true} {
			d.ZeRO = zero
			p, err := d.PredictStep(cfg.Spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ShortRun(d, cfg.Spec, cfg.ValidateSteps, cfg.Warmup, 42)
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

// TestExtrapolateMatchesFullSweep: Extrapolate walks the target twice
// (the two exchanges, with the two-phase exchange on) and prices every
// checkpoint interval from the chosen walk. Its projection must be, field
// for field, the one a walk per exchange × overlap setting and a walk
// per interval picks — the search it replaced, rebuilt here from the
// same escalated deployment — for the R17 winner and the other tests'.
func TestExtrapolateMatchesFullSweep(t *testing.T) {
	cfg, err := testConfig().withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range []string{
		"dp4xep2 b2 fp32",
		"dp1xep8 b2 fp16 zero rc1",
		"dp8xep1 b4 fp32 zero rc1 offload",
		"dp1xep4xpp2 b2 fp32 zero",
	} {
		winner := searched(t, cfg, label)
		proj, err := Extrapolate(cfg, winner)
		if err != nil {
			t.Fatal(err)
		}
		base := proj.Dep
		base.A2A, base.OverlapA2A = 0, false
		best, dep := math.Inf(1), base
		for _, a := range []perfmodel.A2AStrategy{perfmodel.A2AHierarchical, perfmodel.A2AFlat} {
			for _, on := range []bool{true, false} {
				d := base
				d.A2A, d.OverlapA2A = a, on
				p, err := d.PredictStep(proj.Spec)
				if err != nil {
					t.Fatal(err)
				}
				if p.StepTime < best {
					best, dep = p.StepTime, d
				}
			}
		}
		var every int
		var pred perfmodel.StepPrediction
		for iv := 1; iv <= 1<<16; iv *= 2 {
			p, err := dep.PredictStep(proj.Spec)
			if err != nil {
				t.Fatal(err)
			}
			p = dep.Goodput(p, perfmodel.FaultModel{MTBFSteps: cfg.MTBFSteps, CkptEverySteps: iv, Async: true})
			if every == 0 || p.Goodput > pred.Goodput {
				every, pred = iv, p
			}
		}
		if proj.Dep != dep || proj.CkptEvery != every || proj.Pred != pred {
			t.Fatalf("%s projects %+v, ckpt %d, %+v\nthe full sweep %+v, ckpt %d, %+v", winner, proj.Dep, proj.CkptEvery, proj.Pred, dep, every, pred)
		}
	}
}

// TestEnumerateSpaceListsDistinctDeployments: at the plan defaults the
// search lists 40 deployments, all different and differently labelled,
// and the FP16 codec only where the expert group spans more than one
// supernode.
func TestEnumerateSpaceListsDistinctDeployments(t *testing.T) {
	cfg, err := Config{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	feasible, _, _ := EnumerateSpace(cfg)
	deps, labels := map[perfmodel.Deployment]bool{}, map[string]bool{}
	for _, d := range feasible {
		deps[d], labels[d.String()] = true, true
		if d.WireFP16 && d.ExpertParallel <= cfg.RanksPerNode*cfg.Machine.NodesPerSupernode {
			t.Fatalf("%s lists the FP16 codec inside one supernode", d)
		}
	}
	if len(feasible) != 40 || len(deps) != 40 || len(labels) != 40 {
		t.Fatalf("%d deployments at the plan defaults, %d distinct, %d labels; want 40 of each", len(feasible), len(deps), len(labels))
	}
}

// TestOverlapNeverSlowsAStep is why every candidate runs the two-phase
// exchange: on a seeded sample of grids × batches × memory levers, under
// both codecs, the engine's two-phase step is never slower than the
// blocking one and trains the same loss to the bit, and the walk never
// prices it slower. Inside one supernode neither the overlap nor the
// codec touches a row, so both clocks read the same step either way:
// that is why the search lists FP16 only across supernodes.
func TestOverlapNeverSlowsAStep(t *testing.T) {
	cfg, err := testConfig().withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	var shapes []perfmodel.Deployment
	for _, g := range []string{"dp1xep8", "dp2xep4", "dp1xep4xpp2"} {
		for _, batch := range []int{2, 4} {
			d := searched(t, cfg, fmt.Sprintf("%s b%d fp32", g, batch))
			for _, lv := range memoryLevers {
				d.ZeRO, d.RecomputeEvery, d.OffloadOptState = lv.zero, lv.rcEvery, lv.offload
				shapes = append(shapes, d)
			}
		}
	}
	type clocks struct {
		pred, meas float64
		loss       float32
	}
	for _, shape := range sampleCandidates(shapes, 10, tensor.NewRNG(3)) {
		crosses := shape.ExpertParallel > cfg.RanksPerNode*cfg.Machine.NodesPerSupernode
		var byCodec [2]clocks
		for i, fp16 := range []bool{false, true} {
			d := shape
			d.WireFP16 = fp16
			var run [2]clocks // two-phase, blocking
			for j, overlap := range []bool{true, false} {
				d.OverlapA2A = overlap
				p, err := d.PredictStep(cfg.Spec)
				if err != nil {
					t.Fatal(err)
				}
				res, err := ShortRun(d, cfg.Spec, cfg.ValidateSteps, cfg.Warmup, 42)
				if err != nil {
					t.Fatalf("%s: %v", d, err)
				}
				run[j] = clocks{p.StepTime, res.SimPerStep, res.FinalLoss}
			}
			on, off := run[0], run[1]
			t.Logf("%-30s two-phase pred %.6g meas %.6g, blocking pred %.6g meas %.6g", d, on.pred, on.meas, off.pred, off.meas)
			if on.meas > off.meas || on.pred > off.pred {
				t.Errorf("%s: the two-phase step is slower (measured %.6g vs %.6g, predicted %.6g vs %.6g)", d, on.meas, off.meas, on.pred, off.pred)
			}
			if math.Float32bits(on.loss) != math.Float32bits(off.loss) {
				t.Errorf("%s: the two-phase exchange trains loss %v, the blocking one %v", d, on.loss, off.loss)
			}
			if !crosses && on != off {
				t.Errorf("%s: inside one supernode the overlap moved a clock: %+v vs %+v", d, on, off)
			}
			byCodec[i] = on
		}
		if !crosses && byCodec[0] != byCodec[1] {
			t.Errorf("%s: inside one supernode the codec moved a clock: fp32 %+v, fp16 %+v", shape, byCodec[0], byCodec[1])
		}
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
	for _, d := range feasible {
		if d.ExpertParallel != 1 {
			t.Fatalf("feasible deployment %s has EP %d not dividing 7 experts", d, d.ExpertParallel)
		}
		if err := d.ValidateFor(cfg.Spec); err != nil {
			t.Fatalf("feasible deployment %s fails validation: %v", d, err)
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
			t.Fatalf("deployment %s measured non-positive simsec", v.Deployment)
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
	cfg, err := testConfig().withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	proj, err := Extrapolate(cfg, searched(t, cfg, "dp1xep8 b2 fp16 zero rc1"))
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
