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
	"slices"
	"sync"

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
	// RouteSkew is the rows the busiest rank of an expert group received
	// over the group's mean, averaged over the measured steps' MoE layers
	// and groups (each layer's last micro-batch, where the step keeps its
	// routing; 0 with none): what perfmodel.Deployment.RouteSkew prices.
	RouteSkew float64
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

	// loads[{step, layer, group}] is the rows each member of an expert
	// group received: every source's routing counts on their owners.
	var mu sync.Mutex
	loads := map[[3]int][]int{}
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
			if s < cfg.Warmup {
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
			res.SimPerStep = sim / float64(cfg.Steps)
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
