package autotune

import (
	"math"
	"testing"
)

// TestPredictStepTracksMeasuredSimsecWithPP extends the tau gate to
// the pipeline axis: across flat MoDa layouts and folded [pp, dp, ep]
// layouts (1F1B, token-fair M = PP), the analytic ordering must still
// track the simsec ordering the simulated stack measures.
func TestPredictStepTracksMeasuredSimsecWithPP(t *testing.T) {
	cfg, err := testConfig().withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Spec.Layers = 4 // deep enough for pp ∈ {2, 4} layer chunks
	labels := []string{
		"dp8xep1 b2 fp32", "dp4xep2 b2 fp32", "dp2xep4 b2 fp32",
		"dp2xep2xpp2 b2 fp32 zero rc1", "dp4xep1xpp2 b2 fp32 zero rc1", "dp1xep2xpp4 b2 fp32 zero rc1",
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
		t.Logf("%-34s pred %.6g  measured %.6g", d, pred[i], meas[i])
		if e := math.Abs(pred[i]-meas[i]) / meas[i]; e > 0.15 {
			t.Errorf("%s: predicted step %.6g s is %.1f%% off the measured %.6g s (bound 15%%)", d, pred[i], 100*e, meas[i])
		}
	}
	if tau := KendallTau(pred, meas); tau < 0.6 {
		t.Fatalf("analytic ranking does not track measured simsec across PP: tau %.3f < 0.6\npred %v\nmeas %v",
			tau, pred, meas)
	}
}

// TestEnumerateSpaceSweepsPP checks the divisor-pruned pipeline axis:
// stage counts divide both the rank set and the layer stack, pipelined
// candidates carry every memory lever the flat ones do, and
// interleaving only appears where the layer count fills V·PP chunks.
func TestEnumerateSpaceSweepsPP(t *testing.T) {
	cfg, err := testConfig().withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Spec.Layers = 4
	cfg.PPMax = 8
	feasible, total, pruned := EnumerateSpace(cfg)
	if total != len(feasible)+pruned {
		t.Fatalf("space accounting broken: %d != %d + %d", total, len(feasible), pruned)
	}
	seenPP := map[int]bool{}
	seenVPP := map[int]bool{}
	type lever struct {
		zero    bool
		rcEvery int
		offload bool
	}
	ppLevers := map[lever]bool{}
	for _, d := range feasible {
		seenPP[d.PP()] = true
		if d.PP() > 1 {
			seenVPP[d.VPP()] = true
			ppLevers[lever{d.ZeRO, d.RecomputeEvery, d.OffloadOptState}] = true
			if cfg.Spec.Layers%(d.PP()*d.VPP()) != 0 {
				t.Fatalf("deployment %s does not chunk %d layers evenly", d, cfg.Spec.Layers)
			}
		}
		if err := d.ValidateFor(cfg.Spec); err != nil {
			t.Fatalf("feasible deployment %s fails validation: %v", d, err)
		}
	}
	for _, pp := range []int{1, 2, 4} {
		if !seenPP[pp] {
			t.Fatalf("pipeline depth %d missing from the swept space", pp)
		}
	}
	if seenPP[8] {
		t.Fatal("pp8 enumerated: 8 stages cannot chunk 4 layers")
	}
	if !seenVPP[2] {
		t.Fatal("interleaved (V=2) candidates missing: 4 layers fill pp2 x v2")
	}
	if len(ppLevers) != len(memoryLevers) {
		t.Fatalf("pipelined candidates carry %d of the %d memory levers: %v", len(ppLevers), len(memoryLevers), ppLevers)
	}
}

// TestAutotunePicksPPAtDepth is the R19 acceptance criterion wired
// into the search: at depth 8 on 8 ranks, the validated ranking's
// measured-best configuration folds a pipeline (PP > 1) rather than
// staying on the flat MoDa grid.
func TestAutotunePicksPPAtDepth(t *testing.T) {
	cfg := testConfig()
	cfg.Spec = SearchSpec()
	cfg.Spec.Layers = 8
	cfg.PPMax = 4
	p, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Validated) == 0 {
		t.Fatal("no validated candidates")
	}
	best := p.Validated[0]
	for _, v := range p.Validated[1:] {
		if v.Measured.SimPerStep < best.Measured.SimPerStep {
			best = v
		}
	}
	t.Logf("measured best: %s (%.6g simsec/step)", best.Deployment, best.Measured.SimPerStep)
	if best.PP() <= 1 {
		for _, v := range p.Validated {
			t.Logf("validated %-34s pred %.6g meas %.6g", v.Deployment, v.Pred.StepTime, v.Measured.SimPerStep)
		}
		t.Fatalf("measured-best validated candidate %s is flat; expected a folded pipeline at depth %d",
			best.Deployment, cfg.Spec.Layers)
	}
}

// TestPlanAtDepthTracksMeasurement gates the search that `bagualu plan
// -pp-max 4 -layers 8` runs, at its defaults: its validated set must
// rank with tau >= 0.6 against the measurement, rank a pipelined
// candidate first, and measure a pipelined candidate fastest — the one
// it also predicted fastest (TopMatch).
func TestPlanAtDepthTracksMeasurement(t *testing.T) {
	cfg := Config{PPMax: 4, Spec: SearchSpec()}
	cfg.Spec.Layers = 8
	p, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range p.Validated {
		t.Logf("validated %-34s pred %.6g meas %.6g", v.Deployment, v.Pred.StepTime, v.Measured.SimPerStep)
	}
	if p.Tau < 0.6 {
		t.Fatalf("plan at depth 8 ranks %d candidates with tau %.3f < 0.6", len(p.Validated), p.Tau)
	}
	fastest := p.Validated[0]
	for _, v := range p.Validated[1:] {
		if v.Measured.SimPerStep < fastest.Measured.SimPerStep {
			fastest = v
		}
	}
	if !p.TopMatch || p.Validated[0].PP() <= 1 || fastest.PP() <= 1 {
		t.Fatalf("analytic best %s, measured fastest %s (top-1 match %v); want both pipelined and the fastest predicted so",
			p.Validated[0].Deployment, fastest.Deployment, p.TopMatch)
	}
}
