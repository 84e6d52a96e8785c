// Package bagualu is a from-scratch reproduction of "BaGuaLu:
// targeting brain scale pretrained models with over 37 million
// cores" (PPoPP 2022) as a pure-Go library.
//
// The real system trains Mixture-of-Experts transformers with up to
// 174 trillion parameters on the New Generation Sunway supercomputer.
// That hardware is inaccessible, so this library re-creates the whole
// stack on a simulated substrate:
//
//   - a dense tensor library with goroutine-parallel kernels
//     (internal/tensor) and software FP16/BF16 (internal/half);
//   - a transformer model stack with fused explicit backward passes
//     (internal/nn) cross-validated by a tape autograd engine
//     (internal/autograd);
//   - the MoE layer family — top-k gating, capacity limits, load
//     balance loss, local and distributed expert parallelism
//     (internal/moe);
//   - a machine model of the Sunway hierarchy (internal/sunway), an
//     α–β network cost model (internal/simnet) and an MPI-like
//     runtime over goroutines whose collectives are priced in
//     virtual time (internal/mpi), including the paper's
//     hierarchical all-to-all;
//   - the hybrid "MoDa" data+expert parallel training engine
//     (internal/parallel), mixed-precision training with dynamic
//     loss scaling, checkpointing (internal/train), a synthetic
//     multimodal corpus (internal/data), and an analytic performance
//     model that projects to the full 96,000-node machine
//     (internal/perfmodel).
//
// This package is the public facade: it re-exports the types a
// downstream user composes, so `import "bagualu"` is enough for the
// common workflows. See examples/ for runnable end-to-end programs
// and DESIGN.md / EXPERIMENTS.md for the reproduction methodology.
package bagualu

import (
	"bagualu/internal/ckpt"
	"bagualu/internal/data"
	"bagualu/internal/fault"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/parallel"
	"bagualu/internal/perfmodel"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
	"bagualu/internal/train"
)

// Machine and network modeling.
type (
	// Machine describes a (possibly scaled) Sunway-like system.
	Machine = sunway.Machine
	// Precision enumerates numeric training modes.
	Precision = sunway.Precision
	// Topology prices messages on the machine's network hierarchy.
	Topology = simnet.Topology
	// World is a set of communicating ranks (goroutines).
	World = mpi.World
	// Comm is an MPI-like communicator.
	Comm = mpi.Comm
)

// Model stack.
type (
	// RNG is the deterministic random stream used everywhere.
	RNG = tensor.RNG
	// GPTConfig shapes the decoder-only transformer.
	GPTConfig = nn.GPTConfig
	// GPT is the transformer language model.
	GPT = nn.GPT
	// GateConfig shapes MoE routing.
	GateConfig = moe.GateConfig
)

// Training.
type (
	// CorpusConfig shapes the synthetic pretraining corpus.
	CorpusConfig = data.CorpusConfig
	// Corpus generates training batches.
	Corpus = data.Corpus
	// TrainConfig drives a training run.
	TrainConfig = train.Config
	// Trainer is the single-rank training loop.
	Trainer = train.Trainer
	// Strategy is the folded [pp, dp, ep] process grid.
	Strategy = parallel.Strategy
	// ModelConfig describes the distributed MoE transformer.
	ModelConfig = parallel.ModelConfig
	// Engine is the per-rank hybrid-parallel training engine.
	Engine = parallel.Engine
)

// Projection.
type (
	// ModelSpec describes an architecture analytically.
	ModelSpec = perfmodel.ModelSpec
	// Deployment maps a spec onto a machine.
	Deployment = perfmodel.Deployment
)

// Precision modes.
const (
	FP64  = sunway.FP64
	FP32  = sunway.FP32
	FP16  = sunway.FP16
	Mixed = sunway.Mixed
)

// NewGenerationSunway returns the full 96,000-node machine model
// (>37M cores).
func NewGenerationSunway() *Machine { return sunway.NewGenerationSunway() }

// TestMachine returns a small machine with the same shape constants.
func TestMachine(supernodes, nodesPerSN int) *Machine {
	return sunway.TestMachine(supernodes, nodesPerSN)
}

// NewTopology derives the network cost hierarchy from a machine.
func NewTopology(m *Machine, ranksPerNode int) *Topology {
	return simnet.New(m, ranksPerNode)
}

// NewWorld creates a world of size ranks priced by topo (nil topo =
// free network).
func NewWorld(size int, topo *Topology) *World { return mpi.NewWorld(size, topo) }

// NewRNG seeds a deterministic random stream.
func NewRNG(seed uint64) *RNG { return tensor.NewRNG(seed) }

// NewCorpus builds a synthetic corpus.
func NewCorpus(cfg CorpusConfig) (*Corpus, error) { return data.NewSynthetic(cfg) }

// NewEngine builds the per-rank hybrid-parallel engine; call inside
// World.Run with identical arguments on every rank.
func NewEngine(c *Comm, strat Strategy, mc ModelConfig, cc CorpusConfig, tc TrainConfig, opt train.Optimizer, seed uint64) (*Engine, error) {
	return parallel.NewEngine(c, strat, mc, cc, tc, opt, seed)
}

// NewAdam constructs the Adam/AdamW optimizer.
func NewAdam(weightDecay float32) *train.Adam { return train.NewAdam(weightDecay) }

// NewSGD constructs SGD with momentum.
func NewSGD(momentum float32) *train.SGD { return train.NewSGD(momentum) }

// ConstantLR is a fixed learning-rate schedule.
func ConstantLR(lr float32) train.Schedule { return train.ConstantLR(lr) }

// WarmupCosine is the pretraining learning-rate schedule.
func WarmupCosine(peak, floor float32, warmup, total int) train.Schedule {
	return train.WarmupCosine{Peak: peak, Floor: floor, Warmup: warmup, Total: total}
}

// BrainScaleSpecs returns the paper's three headline model
// configurations (1.93T / 14.5T / 174T parameters, reconstructed).
func BrainScaleSpecs() []ModelSpec { return perfmodel.BrainScaleSpecs() }

// Model building blocks for single-process use.
type (
	// Layer is the module interface the transformer composes.
	Layer = nn.Layer
	// FFNFactory customizes the feed-forward slot of each block.
	FFNFactory = nn.FFNFactory
	// Param is a trainable tensor with its gradient.
	Param = nn.Param
	// Optimizer updates parameters from gradients.
	Optimizer = train.Optimizer
	// Schedule maps steps to learning rates.
	Schedule = train.Schedule
)

// All-to-all algorithm choices for ModelConfig.Algo.
const (
	A2AAuto         = moe.Auto
	A2AHierarchical = moe.Hierarchical
)

// ProjA2AHierarchical is the analytic hierarchical all-to-all
// strategy for Deployment.A2A.
const ProjA2AHierarchical = perfmodel.A2AHierarchical

// OpSum is the elementwise-sum reduction for collectives.
func OpSum(dst, src []float32) { mpi.OpSum(dst, src) }

// OpMax is the elementwise-max reduction for collectives.
func OpMax(dst, src []float32) { mpi.OpMax(dst, src) }

// NewGPT builds a decoder-only transformer; ffn may be nil for dense
// blocks or return MoE layers.
func NewGPT(cfg GPTConfig, r *RNG, ffn FFNFactory) *GPT { return nn.NewGPT(cfg, r, ffn) }

// LMLoss is the softmax cross-entropy language-modeling loss with an
// explicit backward pass.
type LMLoss = nn.SoftmaxCrossEntropy

// ZeroGrads clears the gradients of a parameter list.
func ZeroGrads(ps []*Param) { nn.ZeroGrads(ps) }

// ClipGradNorm rescales gradients to a maximum global L2 norm and
// returns the pre-clip norm.
func ClipGradNorm(ps []*Param, maxNorm float32) float32 {
	return train.ClipGradNorm(ps, maxNorm)
}

// EncodeText converts a string to byte token ids; DecodeText inverts
// it.
func EncodeText(s string) []int   { return data.Encode(s) }
func DecodeText(ids []int) string { return data.Decode(ids) }

// NewLocalMoE builds a single-rank MoE layer with all experts local.
func NewLocalMoE(name string, r *RNG, cfg GateConfig, hidden int) Layer {
	return moe.NewLocalMoE(name, r, cfg, hidden)
}

// NewTrainer wires a model, corpus, and optimizer into a single-rank
// training loop.
func NewTrainer(model *GPT, corpus *Corpus, opt Optimizer, cfg TrainConfig) (*Trainer, error) {
	return train.NewTrainer(model, corpus, opt, cfg)
}

// SaveCheckpoint writes params as a one-shard checkpoint step under
// the directory path.
func SaveCheckpoint(path string, step int64, params []*Param) error {
	return ckpt.SaveForInference(path, step, params)
}

// LoadCheckpoint restores params from the latest step under the
// directory path and returns the saved step.
func LoadCheckpoint(path string, params []*Param) (int64, error) {
	_, hdr, err := ckpt.LoadForInference(path, params)
	return hdr.Step, err
}

// Fault tolerance: deterministic failure injection, sharded
// checkpointing, and the in-run recovery loop.
type (
	// FaultConfig parameterizes a seeded fault schedule (crashes,
	// stragglers, wire faults).
	FaultConfig = fault.Config
	// FaultInjector holds a precomputed, reproducible fault schedule.
	FaultInjector = fault.Injector
	// FaultEvent is one scheduled crash or straggler.
	FaultEvent = fault.Event
	// FaultPolicy drives checkpointing and recovery in the
	// fault-tolerant loop.
	FaultPolicy = train.FaultPolicy
	// FTConfig parameterizes one fault-tolerant run.
	FTConfig = parallel.FTConfig
	// FTResult summarizes a fault-tolerant run (goodput, recoveries,
	// phase timing).
	FTResult = parallel.FTResult
)

// NewFaultInjector draws a reproducible fault schedule from cfg.
func NewFaultInjector(cfg FaultConfig) (*FaultInjector, error) { return fault.New(cfg) }

// ScriptedFaults builds an injector with an explicit event list.
func ScriptedFaults(cfg FaultConfig, events []FaultEvent) (*FaultInjector, error) {
	return fault.Scripted(cfg, events)
}

// RunFaultTolerant trains cfg.Steps steps on w, recovering in-run from
// the injector's failures within the policy's budget.
func RunFaultTolerant(w *World, cfg FTConfig, inj *FaultInjector) (*FTResult, error) {
	return parallel.RunFaultTolerant(w, cfg, inj)
}

// CkptLatest returns the highest committed checkpoint step under dir,
// or -1.
func CkptLatest(dir string) (int64, error) { return ckpt.Latest(dir) }
