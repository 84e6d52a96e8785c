package parallel

// ShortRun is the headless measurement harness the deployment
// autotuner's validation stage drives: it runs a few training steps of
// a candidate configuration through the full simulated stack (mpi
// world on the virtual clock, DistMoE wire exchange, gradient sync,
// ZeRO/recompute/offload levers) and reports the measured virtual
// step time — the ground truth the analytic perfmodel ranking is
// checked against.

import (
	"fmt"

	"bagualu/internal/data"
	"bagualu/internal/mpi"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/train"
)

// ShortRunConfig describes one headless measurement run.
type ShortRunConfig struct {
	// Machine is the (scaled-down) machine description; its link
	// tables price every virtual-clock charge, compute included.
	Machine      *sunway.Machine
	RanksPerNode int

	Strategy Strategy
	Model    ModelConfig
	Corpus   data.CorpusConfig
	Train    train.Config

	// OptFor builds one optimizer per rank (see train.OptimizerFactory).
	OptFor func() train.Optimizer

	// Steps to measure, after Warmup steps that are run but excluded
	// from the mean (the first step pays one-time buffer growth).
	Steps  int
	Warmup int

	// Seed drives model init and the synthetic corpus; the same seed
	// must reproduce the same measurement exactly.
	Seed uint64

	// Efficiency is the sustained fraction of node peak charged as
	// compute (the same knob perfmodel.Deployment.Efficiency models).
	Efficiency float64

	// OffloadOptState prices optimizer-state streaming against the
	// machine's host-memory bandwidth each step.
	OffloadOptState bool
}

// ShortRunResult is the measured outcome on the virtual clock.
type ShortRunResult struct {
	SimPerStep      float64 // mean virtual seconds per measured step
	TokensPerSimSec float64 // last measured step's world throughput
	FinalLoss       float32
	InterSNBytes    int64 // world MoE-exchange bytes that crossed supernodes
	TotalBytes      int64 // world bytes on every tier, whole run
}

// ShortRun executes the configured run and returns the measurement.
// It is deterministic: same config and seed, same result, bit for bit.
func ShortRun(cfg ShortRunConfig) (ShortRunResult, error) {
	var res ShortRunResult
	if cfg.Steps <= 0 {
		return res, fmt.Errorf("parallel: ShortRun needs Steps > 0")
	}
	if cfg.OptFor == nil {
		return res, fmt.Errorf("parallel: ShortRun needs an optimizer factory")
	}
	if err := cfg.Strategy.Validate(); err != nil {
		return res, err
	}
	ranksPerNode := cfg.RanksPerNode
	if ranksPerNode <= 0 {
		ranksPerNode = 1
	}
	eff := cfg.Efficiency
	if eff <= 0 || eff > 1 {
		return res, fmt.Errorf("parallel: ShortRun efficiency %v out of (0,1]", eff)
	}
	ranks := cfg.Strategy.Size()
	topo := simnet.New(cfg.Machine, ranksPerNode)
	w := mpi.NewWorld(ranks, topo)

	// Compute pricing mirrors perfmodel exactly: the per-rank share of
	// the node's sustained peak. MoE layers self-charge at the same
	// rate inside the exchange window (so overlap is measurable); the
	// engine charges the dense remainder after the fact.
	rate := cfg.Machine.NodeFlops(cfg.Train.Precision) * eff / float64(ranksPerNode)
	mc := cfg.Model
	mc.MoESimFLOPS = rate

	var runErr error
	w.Run(func(c *mpi.Comm) {
		e, err := NewEngine(c, cfg.Strategy, mc, cfg.Corpus, cfg.Train, cfg.OptFor(), cfg.Seed)
		if err != nil {
			if c.Rank() == 0 {
				runErr = err
			}
			return
		}
		e.SetComputeRate(rate)
		if cfg.OffloadOptState {
			e.EnableOffload(cfg.Machine.HostMemBWGiBs)
		}
		var sim float64
		for s := 0; s < cfg.Warmup+cfg.Steps; s++ {
			st := e.Step()
			if s < cfg.Warmup || c.Rank() != 0 {
				continue
			}
			sim += st.SimTime
			res.TokensPerSimSec = st.TokensPer
			res.FinalLoss = st.Loss
		}
		if c.Rank() == 0 {
			res.SimPerStep = sim / float64(cfg.Steps)
		}
	})
	if runErr != nil {
		return res, runErr
	}
	tr := w.Stats().Snapshot()
	res.TotalBytes, res.InterSNBytes = tr.TotalBytes(), tr.InterBytes()
	return res, nil
}
