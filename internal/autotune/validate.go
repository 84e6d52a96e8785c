package autotune

// Validation: the analytic ranking is only trustworthy if it tracks
// what the simulated stack actually does. ShortRun runs a deployment
// the walk prices — a few real training steps on the virtual clock —
// and Validate measures rank agreement between predicted step time and
// measured virtual seconds per step.

import (
	"fmt"
	"slices"
	"sync"

	"bagualu/internal/data"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/parallel"
	"bagualu/internal/perfmodel"
	"bagualu/internal/simnet"
	"bagualu/internal/tensor"
	"bagualu/internal/train"
)

// ShortRunResult is the measured outcome on the virtual clock.
type ShortRunResult struct {
	SimPerStep      float64 // mean virtual seconds per measured step
	TokensPerSimSec float64 // last measured step's world throughput
	FinalLoss       float32
	InterSNBytes    int64 // world MoE-exchange bytes that crossed supernodes
	TotalBytes      int64 // world bytes on every tier, whole run
	// RouteSkew is the rows the busiest rank of an expert group received
	// over the group's mean, averaged over the measured steps' MoE layers
	// and groups (each layer's last micro-batch, where the step keeps its
	// routing; 0 with none): what perfmodel.Deployment.RouteSkew prices.
	RouteSkew float64
}

// ShortRun is the measurement harness: it runs spec under d through the
// full simulated stack the step walk mirrors — an mpi world on d's
// machine and virtual clock, the engine on d's grid and micro-batch
// count, d's exchange, codec, overlap, precision and memory levers —
// for warmup steps, which the mean excludes (the first step pays
// one-time buffer growth), then steps measured ones. Compute is charged
// at d's efficiency; the corpus is the synthetic Zipf(1) stream, the
// gate token-choice routing with the 0.01 balance loss. seed drives the
// model init and the corpus, and the same deployment and seed reproduce
// the same result, bit for bit. It rejects what d.ValidateFor rejects,
// so both clocks refuse the same deployments.
func ShortRun(d perfmodel.Deployment, spec perfmodel.ModelSpec, steps, warmup int, seed uint64) (ShortRunResult, error) {
	var res ShortRunResult
	if steps <= 0 {
		return res, fmt.Errorf("autotune: ShortRun needs steps > 0")
	}
	if err := d.ValidateFor(spec); err != nil {
		return res, err
	}
	algo, codec := moe.Direct, mpi.FP32Wire
	if d.A2A == perfmodel.A2AHierarchical {
		algo = moe.Hierarchical
	}
	if d.WireFP16 {
		codec = mpi.FP16Wire
	}
	// Compute pricing mirrors perfmodel exactly: the per-rank share of
	// the node's sustained peak. MoE layers self-charge at the same
	// rate inside the exchange window (so overlap is measurable); the
	// engine charges the dense remainder after the fact.
	rate := d.Machine.NodeFlops(d.Precision) * d.Efficiency / float64(d.RanksPerNode)
	mc := parallel.ModelConfig{
		GPT: nn.GPTConfig{
			Vocab: spec.Vocab, Dim: spec.Dim, Heads: spec.Heads,
			Layers: spec.Layers, SeqLen: spec.SeqLen, FFNHidden: spec.FFNHidden,
		},
		NumExperts: spec.NumExperts, TopK: spec.TopK,
		MoEHidden: spec.MoEHidden, MoEEvery: spec.MoEEvery,
		AuxLossWeight:  0.01,
		Algo:           algo,
		Comm:           moe.CommConfig{Codec: codec, Overlap: d.OverlapA2A},
		MoESimFLOPS:    rate,
		RecomputeEvery: d.RecomputeEvery,
	}
	corpus := data.CorpusConfig{Vocab: spec.Vocab, SeqLen: spec.SeqLen, Zipf: 1, Determinism: 0.8}
	tc := train.Config{Batch: d.BatchPerRank, Precision: d.Precision, Accum: d.Micro()}
	opt := train.OptimizerFactory(d.ZeRO, 0)
	w := mpi.NewWorld(d.Ranks(), simnet.New(d.Machine, d.RanksPerNode))

	// loads[{step, layer, group}] is the rows each member of an expert
	// group received: every source's routing counts on their owners.
	var mu sync.Mutex
	loads := map[[3]int][]int{}
	var runErr error
	w.Run(func(c *mpi.Comm) {
		e, err := parallel.NewEngine(c, d.Grid, mc, corpus, tc, opt(), seed)
		if err != nil {
			if c.Rank() == 0 {
				runErr = err
			}
			return
		}
		e.SetComputeRate(rate)
		if d.OffloadOptState {
			e.EnableOffload(d.Machine.HostMemBWGiBs)
		}
		var sim float64
		for s := 0; s < warmup+steps; s++ {
			st := e.Step()
			if s < warmup {
				continue
			}
			mu.Lock()
			for l, m := range e.MoELayers() {
				k := [3]int{s, l, e.EP.Global(0)}
				if r := m.LastRouting(); r != nil { // a pipelined pass forgets it
					if loads[k] == nil {
						loads[k] = make([]int, e.EP.Size())
					}
					for x, n := range r.Counts {
						loads[k][m.Placement().Owner[x]] += n
					}
				}
			}
			mu.Unlock()
			if c.Rank() != 0 {
				continue
			}
			sim += st.SimTime
			res.TokensPerSimSec = st.TokensPer
			res.FinalLoss = st.Loss
		}
		if c.Rank() == 0 {
			res.SimPerStep = sim / float64(steps)
		}
	})
	if runErr != nil {
		return res, runErr
	}
	var skews []float64
	for _, ld := range loads {
		sum := 0
		for _, n := range ld {
			sum += n
		}
		if sum > 0 {
			skews = append(skews, float64(slices.Max(ld)*len(ld))/float64(sum))
		}
	}
	slices.Sort(skews) // a fixed summation order
	for _, v := range skews {
		res.RouteSkew += v / float64(len(skews))
	}
	tr := w.Stats().Snapshot()
	res.TotalBytes, res.InterSNBytes = tr.TotalBytes(), tr.InterBytes()
	return res, nil
}

// Validated pairs a scored deployment with its measured short run.
type Validated struct {
	Scored
	Measured ShortRunResult
}

// Validate measures the top-k analytically ranked deployments with
// short simulated runs. One seed, drawn from rng, is shared by every
// run: deployments then see identical token streams, so measured
// differences are configuration effects rather than sampling noise —
// and the same config and seed reproduce the same measurements
// exactly.
func Validate(cfg Config, scored []Scored, rng *tensor.RNG) ([]Validated, error) {
	out := make([]Validated, 0, cfg.TopK)
	seed := rng.Uint64()
	for _, s := range scored[:min(cfg.TopK, len(scored))] {
		res, err := ShortRun(s.Deployment, cfg.Spec, cfg.ValidateSteps, cfg.Warmup, seed)
		if err != nil {
			return nil, fmt.Errorf("autotune: validating %s: %w", s.Deployment, err)
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
