package perfmodel

import (
	"math"
	"testing"

	"bagualu/internal/parallel/layout"
	"bagualu/internal/parallel/pipe"
)

// ppDeployment folds a pipeline into the standard test deployment:
// 16 ranks as S stages of (16/S)-rank DP×EP sub-grids.
func ppDeployment(s, v, m int) Deployment {
	d := validDeployment()
	d.DataParallel = 16 / s / 4
	d.ExpertParallel = 4
	d.Pipeline = s
	d.Virtual = v
	d.MicroBatches = m
	return d
}

func ppSpec() ModelSpec {
	spec := tinySpec()
	spec.Layers = 8 // room for pp ∈ {2, 4} × v ∈ {1, 2} chunks
	return spec
}

// TestPPReducesToFlatAtOneStage pins the folding identity: every PP
// term must vanish at S=1 and leave the seed formulas bit-identical —
// a Pipeline=1 deployment IS the flat MoDa deployment.
func TestPPReducesToFlatAtOneStage(t *testing.T) {
	spec := ppSpec()
	flat := validDeployment()
	folded := flat
	folded.Pipeline = 1
	folded.MicroBatches = 1
	a, err := flat.PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := folded.PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("PP=1 prediction diverged from flat:\nflat   %+v\nfolded %+v", a, b)
	}
	if b.Bubble != 0 || b.PPSend != 0 {
		t.Fatalf("flat deployment carries pipeline terms: bubble %v send %v", b.Bubble, b.PPSend)
	}
}

// TestBubbleShrinksWithMicroBatches pins the 1F1B bubble law
// (S-1)/(M·V): more micro-batches amortize the ramp's share of the
// step, interleaving divides the ramp itself, and deeper pipelines
// pay a larger bubble fraction at token-fair M=S.
func TestBubbleShrinksWithMicroBatches(t *testing.T) {
	spec := ppSpec()
	at := func(s, v, m int) StepPrediction {
		p, err := ppDeployment(s, v, m).PredictStep(spec, FaultModel{})
		if err != nil {
			t.Fatalf("pp%dv%dm%d: %v", s, v, m, err)
		}
		return p
	}
	p2 := at(2, 1, 2)
	if p2.Bubble <= 0 || p2.PPSend <= 0 {
		t.Fatalf("pipelined deployment missing PP terms: %+v", p2)
	}
	// The absolute ramp cost — (S-1) idle micro-slots — does not
	// depend on M, but the step grows with M, so the bubble's share
	// of the step must shrink.
	p8 := at(2, 1, 8)
	if math.Abs(p8.Bubble-p2.Bubble) > 1e-12*p2.Bubble {
		t.Fatalf("absolute bubble changed with M: M=2 %v vs M=8 %v", p2.Bubble, p8.Bubble)
	}
	if p8.Bubble/p8.StepTime >= p2.Bubble/p2.StepTime {
		t.Fatalf("bubble share did not shrink with micro-batches: M=2 %v vs M=8 %v",
			p2.Bubble/p2.StepTime, p8.Bubble/p8.StepTime)
	}
	if pv := at(2, 2, 8); pv.Bubble >= p8.Bubble {
		t.Fatal("interleaving did not shrink the bubble")
	}
	// Deeper pipeline at fixed token-fair M=S: bubble fraction
	// (S-1)/S grows with S.
	b2 := at(2, 1, 2)
	b4 := at(4, 1, 4)
	f2 := b2.Bubble / (b2.DenseCompute + b2.MoEPhase + b2.Recompute)
	f4 := b4.Bubble / (b4.DenseCompute + b4.MoEPhase + b4.Recompute)
	if f4 <= f2 {
		t.Fatalf("bubble fraction not increasing with depth: S=2 %v, S=4 %v", f2, f4)
	}
	if math.Abs(f2-0.5) > 1e-9 || math.Abs(f4-0.75) > 1e-9 {
		t.Fatalf("bubble fractions off the (S-1)/M law: S=2 %v (want 0.5), S=4 %v (want 0.75)", f2, f4)
	}
}

// TestPPSendScalesWithMicroBatches pins the stage-boundary activation
// traffic: M·V boundary transfers to each neighbouring stage per step.
func TestPPSendScalesWithMicroBatches(t *testing.T) {
	spec := ppSpec()
	p2, err := ppDeployment(2, 1, 2).PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	p4, err := ppDeployment(2, 1, 4).PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p4.PPSend-2*p2.PPSend) > 1e-12*p4.PPSend {
		t.Fatalf("PPSend not linear in M: M=2 %v, M=4 %v", p2.PPSend, p4.PPSend)
	}
}

// TestPPMemorySharding pins the capacity side of the fold: stages
// partition dense weights (and the stage-local expert pool) 1/S, so
// a pipelined deployment fits strictly more width per node.
func TestPPMemorySharding(t *testing.T) {
	spec := ppSpec()
	flat, err := validDeployment().Memory(spec)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := ppDeployment(4, 1, 4).Memory(spec)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Params >= flat.Params {
		t.Fatalf("stage sharding did not cut weights: flat %v GiB, pp4 %v GiB", flat.Params, pp.Params)
	}
	if math.Abs(pp.Params-flat.Params/4) > 1e-12*flat.Params {
		t.Fatalf("pp4 weights %v not 1/4 of flat %v", pp.Params, flat.Params)
	}
}

// TestMemoryCountsScheduledPasses pins the pipeline activation term to
// the schedule the runner executes: a rank holds the heaviest moment of
// any stage's pipe.Schedule, a pass weighing its activations between
// its forward and its backward and its held output gradients too
// between a split backward's B and its W, each over Layers/(S·V)
// layers. Stage 0 of S=4, V=2, M=8 holds 11 passes of L/8 layers and
// one pass's output gradients: 1.5 layer stacks.
func TestMemoryCountsScheduledPasses(t *testing.T) {
	for S := 1; S <= 5; S++ {
		for V := 1; V <= 3; V++ {
			for M := 1; M <= 12; M++ {
				if V > 1 && (S == 1 || M%S != 0) {
					continue
				}
				d := Deployment{Grid: layout.Grid{Pipeline: S, Virtual: V}, MicroBatches: M}
				for _, w := range []struct{ act, dy float64 }{{1, 0}, {0, 1}, {6, 6}, {3.5, 6}} {
					peak := 0.0
					for stage := 0; stage < S; stage++ {
						live, held := 0, 0
						for _, op := range pipe.Schedule(stage, S, V, M) {
							split := op.Chunk*S+stage > 0
							switch {
							case op.Kind == pipe.Fwd:
								live++
							case op.Kind == pipe.Bwd && split:
								held++
							case op.Kind == pipe.Bwd:
								live--
							default: // W
								live--
								held--
							}
							peak = max(peak, float64(live)*w.act+float64(held)*w.dy)
						}
						if live != 0 || held != 0 {
							t.Fatalf("S=%d V=%d M=%d stage %d: %d passes, %d held gradients left", S, V, M, stage, live, held)
						}
					}
					if got := d.peakPasses(w.act, w.dy); got != peak {
						t.Fatalf("S=%d V=%d M=%d weights %v: model counts %v, the schedule holds %v", S, V, M, w, got, peak)
					}
				}
			}
		}
	}
	spec := ppSpec()
	act := func(d Deployment) float64 {
		mb, err := d.Memory(spec)
		if err != nil {
			t.Fatal(err)
		}
		return mb.Activations
	}
	flat := act(ppDeployment(1, 1, 1))
	for _, c := range []struct {
		s, v, m int
		stacks  float64
	}{{2, 1, 2, 1}, {4, 1, 4, 1}, {4, 1, 2, 0.75}, {4, 2, 8, 1.5}, {2, 2, 4, 1.5}} {
		if got := act(ppDeployment(c.s, c.v, c.m)) / flat; math.Abs(got-c.stacks) > 1e-12 {
			t.Fatalf("S=%d V=%d M=%d: activations %v layer stacks, want %v", c.s, c.v, c.m, got, c.stacks)
		}
	}
}

// TestPPValidation pins the typed rejections of inconsistent pipeline
// layouts — the same shapes the runtime engine refuses.
func TestPPValidation(t *testing.T) {
	spec := ppSpec()

	d := validDeployment()
	d.Pipeline = -1
	wantConfigError(t, d.Validate(), "pipeline")

	d = validDeployment()
	d.Virtual = 2 // V without a pipeline
	wantConfigError(t, d.Validate(), "pipeline")

	d = ppDeployment(2, 2, 3) // M=3 not divisible by PP=2
	wantConfigError(t, d.Validate(), "pipeline")

	d = ppDeployment(2, 1, 2)
	d.DataParallel = 4 // DP×EP×PP overshoots the rank count
	wantConfigError(t, d.Validate(), "grid")

	d = ppDeployment(4, 2, 4) // 8 chunks > tinySpec's layers
	shallow := spec
	shallow.Layers = 4
	wantConfigError(t, d.ValidateFor(shallow), "pipeline")

	if err := ppDeployment(4, 2, 4).ValidateFor(spec); err != nil {
		t.Fatalf("valid folded layout rejected: %v", err)
	}
}
