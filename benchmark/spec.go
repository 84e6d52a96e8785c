package main

import (
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/parallel"
	"bagualu/internal/sunway"
	"bagualu/internal/train"
)

// Frozen workload sizes. Sizes are step and request counts, never wall
// time: --seconds only decides how many *extra* steady-state samples the
// host clock takes after the fixed part (see README "What --seconds
// does"). The calibration record behind every rate and limit is in
// README.md.

// efficiency is the sustained fraction of node peak charged as compute
// on the virtual clock — the knob parallel.ShortRun and perfmodel share.
const efficiency = 0.3

// setupReps is how many times each run repeats its set-up; setup_s is
// the median, so one page-fault storm does not decide the number.
const setupReps = 3

// engineSpec sizes a workload driven through parallel.NewEngine/Step.
type engineSpec struct {
	strat        parallel.Strategy
	supernodes   int
	nodesPerSN   int
	ranksPerNode int
	model        parallel.ModelConfig
	train        train.Config
	zero         bool // ZeRO-sharded Adam
	zipf         float64

	warmup int // steps run before timing starts (part of setup_s)
	fixed  int // timed steps every run takes; sim metrics, loss and digest use exactly these
}

// ftSpec sizes the fault-tolerant run (parallel.RunFaultTolerant).
type ftSpec struct {
	engineSpec
	steps      int
	ckptEvery  int
	crashSteps []int // step boundaries at which one rank fail-stops
	dropProb   float64
}

// serveSpec sizes a serving workload (serve.Run or fleet.Run).
type serveSpec struct {
	gpt    nn.GPTConfig
	gate   moe.GateConfig
	hidden int

	requests             int
	ratePerSec           float64 // Poisson arrivals on the virtual clock
	promptMin, promptMax int
	newMin, newMax       int
	tiers                []float64

	ranks    int // ranks of one serving world (one replica)
	maxBatch int
	kvBudget int

	// Fleet only (replicas == 0 selects serve.Run on one world).
	replicas   int
	mtbfSteps  float64
	maxCrashes int
	stragglers int
	tierSLO    []float64

	warmupRequests int // closed-loop drain before timing (part of setup_s)

	// SLO limits in virtual seconds: 3x the unloaded, fault-free p50
	// measured once during calibration (README).
	sloTTFT, sloTPOT float64
}

// Virtual pricing of the serving engine, the bagualu-serve defaults.
const (
	serveFLOPS = 1e9
	serveMemBW = 1e-3 // GiB/s
)

type specs struct {
	dense, moeEP, ppZero engineSpec
	ft                   ftSpec
	fleet, prefill       serveSpec
}

func adamLR() train.Schedule { return train.ConstantLR(1e-3) }

// fullSpecs are the sizes BENCHMARK.json's numbers are measured at.
func fullSpecs() specs {
	return specs{
		dense: engineSpec{
			strat:      parallel.Strategy{DataParallel: 1, ExpertParallel: 1},
			supernodes: 1, nodesPerSN: 1, ranksPerNode: 1,
			model: parallel.ModelConfig{
				GPT: nn.GPTConfig{Vocab: 256, Dim: 128, Heads: 4, Layers: 4, SeqLen: 64, FFNHidden: 512},
			},
			train: train.Config{Batch: 8, Precision: sunway.FP32, Schedule: adamLR(), ClipNorm: 1},
			zipf:  1.0, warmup: 2, fixed: 8,
		},
		moeEP: engineSpec{
			strat: parallel.Strategy{DataParallel: 2, ExpertParallel: 4},
			// One node per supernode, so each 4-rank expert-parallel group
			// spans two supernodes and the FP16 wire codec has a cross-
			// supernode leg to act on (on 2 x 2 nodes the group fits inside
			// one supernode and the codec never runs).
			supernodes: 4, nodesPerSN: 1, ranksPerNode: 2,
			model: parallel.ModelConfig{
				GPT:        nn.GPTConfig{Vocab: 256, Dim: 128, Heads: 4, Layers: 2, SeqLen: 32, FFNHidden: 256},
				NumExperts: 16, TopK: 2, AuxLossWeight: 0.01, MoEHidden: 256, MoEEvery: 1,
				Algo: moe.Auto, RouteMode: moe.TokenChoice,
				Comm: moe.CommConfig{Codec: mpi.FP16Wire, Overlap: true},
			},
			train: train.Config{Batch: 4, Precision: sunway.Mixed, Schedule: adamLR(), ClipNorm: 1},
			zipf:  1.2, warmup: 2, fixed: 8,
		},
		ppZero: engineSpec{
			strat:      parallel.Strategy{DataParallel: 2, ExpertParallel: 1, Pipeline: 4, Virtual: 2},
			supernodes: 2, nodesPerSN: 2, ranksPerNode: 2,
			model: parallel.ModelConfig{
				GPT:        nn.GPTConfig{Vocab: 256, Dim: 64, Heads: 4, Layers: 8, SeqLen: 32, FFNHidden: 128},
				NumExperts: 2, TopK: 1, AuxLossWeight: 0.01, MoEHidden: 128, MoEEvery: 2, Algo: moe.Auto,
			},
			train: train.Config{Batch: 2, Precision: sunway.FP32, Schedule: adamLR(), ClipNorm: 1, Accum: 8},
			zero:  true, zipf: 1.0, warmup: 2, fixed: 8,
		},
		ft: ftSpec{
			engineSpec: engineSpec{
				strat:      parallel.Strategy{DataParallel: 8, ExpertParallel: 1},
				supernodes: 2, nodesPerSN: 2, ranksPerNode: 2,
				model: parallel.ModelConfig{
					GPT:        nn.GPTConfig{Vocab: 256, Dim: 64, Heads: 4, Layers: 2, SeqLen: 32, FFNHidden: 128},
					NumExperts: 4, TopK: 2, AuxLossWeight: 0.01, MoEHidden: 128, MoEEvery: 1, Algo: moe.Auto,
				},
				train: train.Config{Batch: 4, Precision: sunway.FP32, Schedule: adamLR(), ClipNorm: 1},
				zipf:  1.0, warmup: 1,
			},
			steps: 15, ckptEvery: 5, crashSteps: []int{6, 11}, dropProb: 1e-3,
		},
		fleet: serveSpec{
			gpt:      nn.GPTConfig{Vocab: 64, Dim: 64, Heads: 4, Layers: 2, SeqLen: 64, FFNHidden: 128},
			gate:     moe.GateConfig{Dim: 64, NumExperts: 8, TopK: 2, CapacityFactor: 2},
			hidden:   128,
			requests: 1500, ratePerSec: 0.25, promptMin: 4, promptMax: 16, newMin: 16, newMax: 48,
			tiers: []float64{1, 2, 1},
			ranks: 2, maxBatch: 4, kvBudget: 256,
			replicas: 3, mtbfSteps: 2500, maxCrashes: 6, stragglers: 1,
			tierSLO:        []float64{30, 60, 120},
			warmupRequests: 64,
			sloTTFT:        3 * 0.5146, sloTPOT: 3 * 0.3022,
		},
		prefill: serveSpec{
			gpt:      nn.GPTConfig{Vocab: 64, Dim: 64, Heads: 4, Layers: 2, SeqLen: 104, FFNHidden: 128},
			gate:     moe.GateConfig{Dim: 64, NumExperts: 8, TopK: 2, CapacityFactor: 2},
			hidden:   128,
			requests: 1500, ratePerSec: 17, promptMin: 48, promptMax: 96, newMin: 1, newMax: 4,
			ranks: 4, maxBatch: 8, kvBudget: 512,
			warmupRequests: 96,
			sloTTFT:        3 * 0.4533, sloTPOT: 3 * 0.2643,
		},
	}
}

// tinySpecs keep every code path of fullSpecs (same layouts, faults,
// policies) at sizes the tier-1 smoke test runs in a few seconds.
func tinySpecs() specs {
	s := fullSpecs()
	shrink := func(e *engineSpec, dim, seq, batch int) {
		e.model.GPT.Vocab, e.model.GPT.Dim, e.model.GPT.SeqLen, e.model.GPT.FFNHidden = 64, dim, seq, 2*dim
		e.model.GPT.Heads = 2
		if e.model.MoEEvery > 0 {
			e.model.MoEHidden = 2 * dim
		}
		e.train.Batch, e.warmup, e.fixed = batch, 1, 6
		e.train.Schedule = train.ConstantLR(1e-2) // a handful of steps must already lower the loss
	}
	shrink(&s.dense, 16, 8, 2)
	s.dense.model.GPT.Layers = 2
	shrink(&s.moeEP, 16, 8, 2)
	shrink(&s.ppZero, 16, 8, 1)
	shrink(&s.ft.engineSpec, 16, 8, 2)
	s.ft.steps, s.ft.ckptEvery, s.ft.crashSteps = 8, 2, []int{3, 6}
	for _, v := range []*serveSpec{&s.fleet, &s.prefill} {
		v.gpt.Dim, v.gpt.Heads, v.gpt.FFNHidden, v.gate.Dim, v.hidden = 16, 2, 32, 16, 32
		v.requests, v.warmupRequests = 40, 4
	}
	s.fleet.mtbfSteps = 60
	return s
}
