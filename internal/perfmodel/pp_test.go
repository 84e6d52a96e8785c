package perfmodel

import (
	"math"
	"testing"

	"bagualu/internal/parallel/layout"
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
	a, err := flat.PredictStep(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := folded.PredictStep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("PP=1 prediction diverged from flat:\nflat   %+v\nfolded %+v", a, b)
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
// any stage's schedule.Schedule, a pass weighing its activations between
// its forward and its backward and its held output gradients too
// between a split backward's B and its W, each over Layers/(S·V)
// layers. The walk's count equals the warmup law it replaced — a stage
// holds the most passes, its warmup forwards plus the one its steady
// state adds (capped by the passes there are), at its first backward,
// which is split on every stage but the flat grid's and 1F1B's stage 0
// — at every shape. Stage 0 of S=4, V=2, M=8 holds 11 passes of L/8
// layers and one pass's output gradients: 1.5 layer stacks.
func TestMemoryCountsScheduledPasses(t *testing.T) {
	warmupLaw := func(S, V, M int, act, dy float64) float64 {
		peak := 0.0
		for stage := 0; stage < S; stage++ {
			warmup := S - 1 - stage
			if V > 1 {
				warmup = 2*(S-1-stage) + (V-1)*S
			}
			w := float64(min(warmup+1, M*V)) * act
			if stage > 0 || V > 1 {
				w += dy
			}
			peak = max(peak, w)
		}
		return peak
	}
	for S := 1; S <= 5; S++ {
		for V := 1; V <= 3; V++ {
			for M := 1; M <= 12; M++ {
				if V > 1 && (S == 1 || M%S != 0) {
					continue
				}
				d := Deployment{Grid: layout.Grid{Pipeline: S, Virtual: V}, MicroBatches: M}
				for _, w := range []struct{ act, dy float64 }{{1, 0}, {0, 1}, {6, 6}, {3.5, 6}} {
					if got, want := d.peakPasses(w.act, w.dy), warmupLaw(S, V, M, w.act, w.dy); got != want {
						t.Fatalf("S=%d V=%d M=%d weights %v: the walk counts %v, the warmup law %v", S, V, M, w, got, want)
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
