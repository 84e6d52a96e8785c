package train

import (
	"math"
	"testing"

	"bagualu/internal/sunway"
)

// TestPooledStepMatchesUnpooled trains two identical MoE models for
// several steps — one through Step, which draws its own batches, one
// through StepOn, which is handed the same batches — and requires
// identical losses and final weights. Both paths allocate every
// intermediate fresh, so any state one step leaks into the next (a
// buffer kept across steps, a missed gradient zero-fill) shows up as a
// divergence, typically from step 2 onward. The name dates from when
// Step ran on recycled pool buffers and StepOn did not.
func TestPooledStepMatchesUnpooled(t *testing.T) {
	const seed = 7
	const steps = 6
	mStep, cStep := moeModel(seed)
	mRef, cRef := moeModel(seed)
	cfg := Config{Batch: 4, Precision: sunway.FP32, Schedule: ConstantLR(3e-3), ClipNorm: 1}
	trStep, err := NewTrainer(mStep, cStep, NewAdam(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	trRef, err := NewTrainer(mRef, cRef, NewAdam(0), cfg)
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < steps; i++ {
		ms := trStep.Step()
		ids, targets := cRef.Batch(cfg.Batch)
		mr := trRef.StepOn(ids, targets)
		if ms.Loss != mr.Loss {
			t.Fatalf("step %d: Step loss %v != StepOn %v", i, ms.Loss, mr.Loss)
		}
		if ms.AuxLoss != mr.AuxLoss {
			t.Fatalf("step %d: Step aux %v != StepOn %v", i, ms.AuxLoss, mr.AuxLoss)
		}
		if ms.GradNorm != mr.GradNorm {
			t.Fatalf("step %d: Step grad norm %v != StepOn %v", i, ms.GradNorm, mr.GradNorm)
		}
	}

	sp, rp := trStep.Params(), trRef.Params()
	if len(sp) != len(rp) {
		t.Fatalf("param count %d vs %d", len(sp), len(rp))
	}
	for i := range sp {
		if sp[i].Name != rp[i].Name {
			t.Fatalf("param order mismatch: %s vs %s", sp[i].Name, rp[i].Name)
		}
		for j := range sp[i].W.Data {
			a, b := sp[i].W.Data[j], rp[i].W.Data[j]
			if a != b {
				t.Fatalf("weight %s[%d] diverged after %d steps: Step %v, StepOn %v (Δ=%g)",
					sp[i].Name, j, steps, a, b, math.Abs(float64(a-b)))
			}
		}
	}
}

// TestPooledStepGradientsMatchUnpooled compares raw per-parameter
// gradients of a single Step vs StepOn backward pass (no optimizer
// noise accumulates, so this localizes a divergence to the
// forward/backward path itself). The Step trainer runs a throwaway
// warm-up step first so its compared step follows one whose state it
// must not inherit.
func TestPooledStepGradientsMatchUnpooled(t *testing.T) {
	const seed = 9
	mStep, cStep := moeModel(seed)
	mRef, cRef := moeModel(seed)
	// LR 0: steps compute gradients but never move the weights, so
	// both models stay at their (identical) initialization.
	cfg := Config{Batch: 4, Precision: sunway.FP32, Schedule: ConstantLR(0)}
	trStep, err := NewTrainer(mStep, cStep, NewSGD(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	trRef, err := NewTrainer(mRef, cRef, NewSGD(0), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Warm up, then take the comparison step. The reference consumes
	// its corpus in lockstep.
	trStep.Step()
	cRef.Batch(cfg.Batch)
	trStep.Step()
	ids, targets := cRef.Batch(cfg.Batch)
	trRef.StepOn(ids, targets)

	sp, rp := trStep.Params(), trRef.Params()
	for i := range sp {
		for j := range sp[i].G.Data {
			a, b := sp[i].G.Data[j], rp[i].G.Data[j]
			if a != b {
				t.Fatalf("grad %s[%d]: Step %v, StepOn %v", sp[i].Name, j, a, b)
			}
		}
	}
}
