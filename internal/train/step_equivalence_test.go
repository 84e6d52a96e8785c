package train

import (
	"fmt"
	"math"
	"testing"

	"bagualu/internal/nn"
	"bagualu/internal/parallel/pipe"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
)

// oracleMicroStep is the direct Forward/Backward loop, sharing no code
// with the schedule runner Step drives: it accumulates one
// micro-batch's gradients, its logits gradient and the MoE layers'
// injected aux-loss gradient scaled by the loss scale times weight,
// without touching the optimizer.
func oracleMicroStep(tr *Trainer, ids, targets []int, weight float32) (loss, aux float32, overflow int) {
	scale := tr.MP.LossScale() * weight
	var moes []pipe.AuxLossLayer
	for _, b := range tr.Model.Blocks {
		if l, ok := b.FFN.(pipe.AuxLossLayer); ok {
			l.SetGradScale(scale)
			moes = append(moes, l)
		}
	}
	var ce nn.SoftmaxCrossEntropy
	loss = ce.Forward(tr.Model.Forward(ids), targets)
	for _, l := range moes {
		aux += l.AuxLoss()
		if r := l.LastRouting(); r != nil {
			overflow += r.Overflow
		}
	}
	d := ce.Backward()
	if scale != 1 {
		tensor.ScaleInPlace(d, scale)
	}
	tr.Model.Backward(d)
	return loss, aux, overflow
}

// oracleStep is one optimizer step of tr that draws Accum micro-batches
// from its corpus and runs each through oracleMicroStep, around the
// trainer's own update rule.
func oracleStep(tr *Trainer) Metrics {
	nn.ZeroGrads(tr.params)
	m := Metrics{Step: tr.step}
	accum := max(tr.Cfg.Accum, 1)
	for range accum {
		ids, targets := tr.Corpus.Batch(tr.Cfg.Batch)
		l, a, o := oracleMicroStep(tr, ids, targets, 1/float32(accum))
		m.Loss += l / float32(accum)
		m.AuxLoss += a / float32(accum)
		m.Overflow += o
	}
	return tr.finishStep(m)
}

// TestPooledStepMatchesUnpooled trains two identical MoE models for
// several steps — one through Step, which runs the one-stage schedule
// runner, one through oracleStep's direct Forward/Backward loop on the
// same micro-batches — and requires identical losses, gradient norms
// and final weights, at FP32 and Mixed, with and without gradient
// accumulation. Both paths allocate every intermediate fresh, so any
// state one step leaks into the next (a buffer kept across steps, a
// missed gradient zero-fill) shows up as a divergence, typically from
// step 2 onward. The name dates from when Step ran on recycled pool
// buffers.
func TestPooledStepMatchesUnpooled(t *testing.T) {
	const seed = 7
	const steps = 6
	for _, prec := range []sunway.Precision{sunway.FP32, sunway.Mixed} {
		for _, accum := range []int{1, 3} {
			t.Run(fmt.Sprintf("%v_accum%d", prec, accum), func(t *testing.T) {
				mStep, cStep := moeModel(seed)
				mRef, cRef := moeModel(seed)
				cfg := Config{Batch: 4, Precision: prec, Schedule: ConstantLR(3e-3), ClipNorm: 1, Accum: accum}
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
					mr := oracleStep(trRef)
					if math.Float32bits(ms.Loss) != math.Float32bits(mr.Loss) {
						t.Fatalf("step %d: Step loss %v != oracle %v", i, ms.Loss, mr.Loss)
					}
					if math.Float32bits(ms.AuxLoss) != math.Float32bits(mr.AuxLoss) || ms.Overflow != mr.Overflow {
						t.Fatalf("step %d: Step aux %v / overflow %d != oracle %v / %d", i, ms.AuxLoss, ms.Overflow, mr.AuxLoss, mr.Overflow)
					}
					if math.Float32bits(ms.GradNorm) != math.Float32bits(mr.GradNorm) || ms.Skipped != mr.Skipped || ms.Scale != mr.Scale {
						t.Fatalf("step %d: Step grad norm %v (skipped %v, scale %v) != oracle %v (%v, %v)",
							i, ms.GradNorm, ms.Skipped, ms.Scale, mr.GradNorm, mr.Skipped, mr.Scale)
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
						if math.Float32bits(a) != math.Float32bits(b) {
							t.Fatalf("weight %s[%d] diverged after %d steps: Step %v, oracle %v (Δ=%g)",
								sp[i].Name, j, steps, a, b, math.Abs(float64(a-b)))
						}
					}
				}
			})
		}
	}
}

// TestPooledStepGradientsMatchUnpooled compares raw per-parameter
// gradients of a single Step vs oracleStep backward pass (no optimizer
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
	oracleStep(trRef)

	sp, rp := trStep.Params(), trRef.Params()
	for i := range sp {
		for j := range sp[i].G.Data {
			a, b := sp[i].G.Data[j], rp[i].G.Data[j]
			if a != b {
				t.Fatalf("grad %s[%d]: Step %v, oracle %v", sp[i].Name, j, a, b)
			}
		}
	}
}
