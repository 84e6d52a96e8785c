package perfmodel

import (
	"math"
	"testing"

	"bagualu/internal/data"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/parallel"
	"bagualu/internal/train"
)

// measure runs spec under d through the simulated stack the step walk
// mirrors (parallel.ShortRun: the engine on the virtual clock, at d's
// efficiency) and returns its virtual seconds per step. A2AFlat runs
// the direct exchange; A2AHierarchical lets the communicator choose, as
// the engine does by default.
func measure(t *testing.T, d Deployment, spec ModelSpec) float64 {
	t.Helper()
	return shortRun(t, d, spec).SimPerStep
}

// shortRun is measure's run, with its routing skew and traffic.
func shortRun(t *testing.T, d Deployment, spec ModelSpec) parallel.ShortRunResult {
	t.Helper()
	comm := moe.CommConfig{Codec: mpi.FP32Wire, Overlap: d.OverlapA2A}
	if d.WireFP16 {
		comm.Codec = mpi.FP16Wire
	}
	algo := moe.Auto
	if d.A2A == A2AFlat {
		algo = moe.Direct
	}
	res, err := parallel.ShortRun(parallel.ShortRunConfig{
		Machine: d.Machine, RanksPerNode: d.RanksPerNode, Strategy: d.Grid,
		Model: parallel.ModelConfig{
			GPT: nn.GPTConfig{
				Vocab: spec.Vocab, Dim: spec.Dim, Heads: spec.Heads,
				Layers: spec.Layers, SeqLen: spec.SeqLen, FFNHidden: spec.FFNHidden,
			},
			NumExperts: spec.NumExperts, TopK: spec.TopK,
			MoEHidden: spec.MoEHidden, MoEEvery: spec.MoEEvery,
			CapacityFactor: 1.25, AuxLossWeight: 0.01,
			Comm: comm, Algo: algo, RecomputeEvery: d.RecomputeEvery,
		},
		Corpus:          data.CorpusConfig{Vocab: spec.Vocab, SeqLen: spec.SeqLen, Zipf: 1, Determinism: 0.8},
		Train:           train.Config{Batch: d.BatchPerRank, Precision: d.Precision, Accum: d.Micro()},
		OptFor:          train.OptimizerFactory(d.ZeRO, 0),
		Steps:           3,
		Warmup:          1,
		Seed:            42,
		Efficiency:      d.Efficiency,
		OffloadOptState: d.OffloadOptState,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// tracks predicts spec under d and fails unless the step is within 15 %
// of the simulator's.
func tracks(t *testing.T, name string, d Deployment, spec ModelSpec) StepPrediction {
	t.Helper()
	p, err := d.PredictStep(spec)
	if err != nil {
		t.Fatal(err)
	}
	meas := measure(t, d, spec)
	t.Logf("%s: predicted %.4g s, measured %.4g s", name, p.StepTime, meas)
	if e := math.Abs(p.StepTime-meas) / meas; e > 0.15 {
		t.Errorf("%s: predicted step %.4g s is %.1f%% off the measured %.4g s", name, p.StepTime, 100*e, meas)
	}
	return p
}
