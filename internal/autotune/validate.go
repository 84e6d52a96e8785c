package autotune

// Validation: the analytic ranking is only trustworthy if it tracks
// what the simulated stack actually does. This file bridges the
// autotuner to parallel.ShortRun — a few real training steps on the
// virtual clock per candidate — and measures rank agreement between
// predicted step time and measured virtual seconds per step.

import (
	"fmt"

	"bagualu/internal/data"
	"bagualu/internal/moe"
	"bagualu/internal/nn"
	"bagualu/internal/parallel"
	"bagualu/internal/tensor"
	"bagualu/internal/train"
)

// Validated pairs a scored candidate with its measured short run.
type Validated struct {
	Scored
	Measured parallel.ShortRunResult
}

// shortRunConfig maps a candidate onto the measurement harness, with
// the two-phase exchange. A pipelined candidate runs token-fair:
// Accum = PP micro-batches per step, matching the analytic model's
// default M = S.
func (cfg Config) shortRunConfig(c Candidate, seed uint64) parallel.ShortRunConfig {
	s := cfg.Spec
	tc := train.Config{Batch: c.Batch, Precision: searchPrecision}
	if c.PP() > 1 {
		tc.Accum = c.PP()
	}
	return parallel.ShortRunConfig{
		Machine:      cfg.Machine,
		RanksPerNode: cfg.RanksPerNode,
		Strategy:     c.Grid,
		Model: parallel.ModelConfig{
			GPT: nn.GPTConfig{
				Vocab: s.Vocab, Dim: s.Dim, Heads: s.Heads,
				Layers: s.Layers, SeqLen: s.SeqLen, FFNHidden: s.FFNHidden,
			},
			NumExperts: s.NumExperts, TopK: s.TopK,
			MoEHidden: s.MoEHidden, MoEEvery: s.MoEEvery,
			CapacityFactor: 1.25, AuxLossWeight: 0.01,
			Comm:           moe.CommConfig{Codec: c.Codec, Overlap: true},
			RecomputeEvery: c.RecomputeEvery,
		},
		Corpus: data.CorpusConfig{
			Vocab: s.Vocab, SeqLen: s.SeqLen, Zipf: 1, Determinism: 0.8,
		},
		Train:           tc,
		OptFor:          train.OptimizerFactory(c.ZeRO, 0),
		Steps:           cfg.ValidateSteps,
		Warmup:          cfg.Warmup,
		Seed:            seed,
		Efficiency:      cfg.Efficiency,
		OffloadOptState: c.Offload,
	}
}

// Validate measures the top-k analytically ranked candidates with
// short simulated runs. One seed, drawn from rng, is shared by every
// run: candidates then see identical token streams, so measured
// differences are configuration effects rather than sampling noise —
// and the same config and seed reproduce the same measurements
// exactly.
func Validate(cfg Config, scored []Scored, rng *tensor.RNG) ([]Validated, error) {
	out := make([]Validated, 0, cfg.TopK)
	seed := rng.Uint64()
	for _, s := range scored[:min(cfg.TopK, len(scored))] {
		res, err := parallel.ShortRun(cfg.shortRunConfig(s.Candidate, seed))
		if err != nil {
			return nil, fmt.Errorf("autotune: validating %s: %w", s.Candidate, err)
		}
		out = append(out, Validated{Scored: s, Measured: res})
	}
	return out, nil
}

// KendallTau computes the Kendall rank correlation between two paired
// samples: +1 for identical orderings, -1 for reversed, 0 for
// independence. Tied pairs in either sample count as neither
// concordant nor discordant (tau-a).
func KendallTau(a, b []float64) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return 0
	}
	var concordant, discordant int
	for i := 0; i < len(a); i++ {
		for j := i + 1; j < len(a); j++ {
			da, db := a[i]-a[j], b[i]-b[j]
			switch {
			case da*db > 0:
				concordant++
			case da*db < 0:
				discordant++
			}
		}
	}
	pairs := len(a) * (len(a) - 1) / 2
	return float64(concordant-discordant) / float64(pairs)
}

// agreement summarizes how well the analytic ranking tracked the
// measurement: Kendall tau over (predicted fault-free step time,
// measured sim seconds per step), and whether the candidate predicted
// fastest was also measured fastest. Both compare step times, since the
// short runs checkpoint nothing: the effective step time the candidates
// are ranked by also prices checkpoints and rework.
func agreement(v []Validated) (tau float64, topMatch bool) {
	if len(v) == 0 {
		return 0, false
	}
	pred := make([]float64, len(v))
	meas := make([]float64, len(v))
	best, fastest := 0, 0
	for i, x := range v {
		pred[i] = x.Pred.StepTime
		meas[i] = x.Measured.SimPerStep
		if meas[i] < meas[best] {
			best = i
		}
		if pred[i] < pred[fastest] {
			fastest = i
		}
	}
	return KendallTau(pred, meas), best == fastest
}
