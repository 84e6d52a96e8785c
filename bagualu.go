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
//     (internal/nn), cross-validated in its tests by a tape autograd
//     engine;
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
// This package is the public facade: it re-exports what the runnable
// programs in examples/ compose, so `import "bagualu"` is enough for
// those workflows. See examples/ for runnable end-to-end programs
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
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
	"bagualu/internal/train"
)

// Model stack and training.
type (
	// RNG is the deterministic random stream used everywhere.
	RNG = tensor.RNG
	// GPTConfig shapes the decoder-only transformer.
	GPTConfig = nn.GPTConfig
	// GateConfig shapes MoE routing.
	GateConfig = moe.GateConfig
	// Layer is the module interface the transformer composes.
	Layer = nn.Layer
	// CorpusConfig shapes the synthetic pretraining corpus.
	CorpusConfig = data.CorpusConfig
	// TrainConfig drives a training run.
	TrainConfig = train.Config
	// Optimizer updates parameters from gradients.
	Optimizer = train.Optimizer
	// Strategy is the folded [pp, dp, ep] process grid.
	Strategy = parallel.Strategy
	// ModelConfig describes the distributed MoE transformer.
	ModelConfig = parallel.ModelConfig
	// Comm is an MPI-like communicator.
	Comm = mpi.Comm
)

// Precision modes.
const (
	FP32  = sunway.FP32
	Mixed = sunway.Mixed
)

// A2AHierarchical is the paper's two-level all-to-all, for
// ModelConfig.Algo.
const A2AHierarchical = moe.Hierarchical

// TestMachine returns a small machine with the same shape constants
// as the full 96,000-node New Generation Sunway.
func TestMachine(supernodes, nodesPerSN int) *sunway.Machine {
	return sunway.TestMachine(supernodes, nodesPerSN)
}

// NewTopology derives the network cost hierarchy from a machine.
func NewTopology(m *sunway.Machine, ranksPerNode int) *simnet.Topology {
	return simnet.New(m, ranksPerNode)
}

// NewWorld creates a world of size ranks priced by topo (nil topo =
// free network).
func NewWorld(size int, topo *simnet.Topology) *mpi.World { return mpi.NewWorld(size, topo) }

// NewRNG seeds a deterministic random stream.
func NewRNG(seed uint64) *RNG { return tensor.NewRNG(seed) }

// NewCorpus builds a synthetic corpus.
func NewCorpus(cfg CorpusConfig) (*data.Corpus, error) { return data.NewSynthetic(cfg) }

// NewEngine builds the per-rank hybrid-parallel engine; call inside
// World.Run with identical arguments on every rank.
func NewEngine(c *Comm, strat Strategy, mc ModelConfig, cc CorpusConfig, tc TrainConfig, opt Optimizer, seed uint64) (*parallel.Engine, error) {
	return parallel.NewEngine(c, strat, mc, cc, tc, opt, seed)
}

// NewAdam constructs the Adam/AdamW optimizer.
func NewAdam(weightDecay float32) *train.Adam { return train.NewAdam(weightDecay) }

// ConstantLR is a fixed learning-rate schedule.
func ConstantLR(lr float32) train.Schedule { return train.ConstantLR(lr) }

// WarmupCosine is the pretraining learning-rate schedule.
func WarmupCosine(peak, floor float32, warmup, total int) train.Schedule {
	return train.WarmupCosine{Peak: peak, Floor: floor, Warmup: warmup, Total: total}
}

// NewGPT builds a decoder-only transformer; ffn may be nil for dense
// blocks or return MoE layers.
func NewGPT(cfg GPTConfig, r *RNG, ffn nn.FFNFactory) *nn.GPT { return nn.NewGPT(cfg, r, ffn) }

// LMLoss is the softmax cross-entropy language-modeling loss with an
// explicit backward pass.
type LMLoss = nn.SoftmaxCrossEntropy

// ZeroGrads clears the gradients of a parameter list.
func ZeroGrads(ps []*nn.Param) { nn.ZeroGrads(ps) }

// ClipGradNorm rescales gradients to a maximum global L2 norm and
// returns the pre-clip norm.
func ClipGradNorm(ps []*nn.Param, maxNorm float32) float32 {
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
func NewTrainer(model *nn.GPT, corpus *data.Corpus, opt Optimizer, cfg TrainConfig) (*train.Trainer, error) {
	return train.NewTrainer(model, corpus, opt, cfg)
}

// SaveCheckpoint writes params as a one-shard checkpoint step under
// the directory path.
func SaveCheckpoint(path string, step int64, params []*nn.Param) error {
	return ckpt.SaveForInference(path, step, params)
}

// LoadCheckpoint restores params from the latest step under the
// directory path and returns the saved step.
func LoadCheckpoint(path string, params []*nn.Param) (int64, error) {
	_, hdr, err := ckpt.LoadForInference(path, params)
	return hdr.Step, err
}

// Fault tolerance: deterministic failure injection, sharded
// checkpointing, and the in-run recovery loop.
type (
	// FaultConfig parameterizes a seeded fault schedule (crashes,
	// stragglers, wire faults).
	FaultConfig = fault.Config
	// FaultEvent is one scheduled crash or straggler.
	FaultEvent = fault.Event
	// FaultPolicy drives checkpointing and recovery in the
	// fault-tolerant loop.
	FaultPolicy = train.FaultPolicy
	// FTConfig parameterizes one fault-tolerant run.
	FTConfig = parallel.FTConfig
)

// ScriptedFaults builds an injector with an explicit event list.
func ScriptedFaults(cfg FaultConfig, events []FaultEvent) (*fault.Injector, error) {
	return fault.Scripted(cfg, events)
}

// RunFaultTolerant trains cfg.Steps steps on w, recovering in-run from
// the injector's failures within the policy's budget.
func RunFaultTolerant(w *mpi.World, cfg FTConfig, inj *fault.Injector) (*parallel.FTResult, error) {
	return parallel.RunFaultTolerant(w, cfg, inj)
}

// CkptLatest returns the highest committed checkpoint step under dir,
// or -1.
func CkptLatest(dir string) (int64, error) { return ckpt.Latest(dir) }
