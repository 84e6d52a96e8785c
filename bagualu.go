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
	"io"

	"bagualu/internal/autotune"
	"bagualu/internal/ckpt"
	"bagualu/internal/data"
	"bagualu/internal/fault"
	"bagualu/internal/health"
	"bagualu/internal/metrics"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/parallel"
	"bagualu/internal/perfmodel"
	"bagualu/internal/serve"
	"bagualu/internal/serve/fleet"
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
	// Tensor is a dense row-major float32 tensor.
	Tensor = tensor.Tensor
	// RNG is the deterministic random stream used everywhere.
	RNG = tensor.RNG
	// GPTConfig shapes the decoder-only transformer.
	GPTConfig = nn.GPTConfig
	// GPT is the transformer language model.
	GPT = nn.GPT
	// GateConfig shapes MoE routing.
	GateConfig = moe.GateConfig
	// RouteMode selects the gate's routing discipline.
	RouteMode = moe.RouteMode
	// LocalMoE is the single-rank MoE layer.
	LocalMoE = moe.LocalMoE
	// DistMoE is the distributed expert-parallel MoE layer.
	DistMoE = moe.DistMoE
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
	// Strategy is the DataParallel × ExpertParallel grid.
	Strategy = parallel.Strategy
	// ModelConfig describes the distributed MoE transformer.
	ModelConfig = parallel.ModelConfig
	// Engine is the per-rank hybrid-parallel training engine.
	Engine = parallel.Engine
	// StepStats summarizes one distributed step.
	StepStats = parallel.StepStats
)

// Projection.
type (
	// ModelSpec describes an architecture analytically.
	ModelSpec = perfmodel.ModelSpec
	// Deployment maps a spec onto a machine.
	Deployment = perfmodel.Deployment
	// Report is a projected training step.
	Report = perfmodel.Report
)

// Precision modes.
const (
	FP64  = sunway.FP64
	FP32  = sunway.FP32
	FP16  = sunway.FP16
	Mixed = sunway.Mixed
	BF16  = sunway.BF16
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

// NewShardedAdam constructs the ZeRO-style Adam whose master weights
// and moments are range-sharded across the gradient-sync
// communicators (reduce-scatter, shard-local update, all-gather).
// The engine binds the shard groups when it installs the optimizer;
// the trajectory is bit-exact versus replicated Adam.
func NewShardedAdam(weightDecay float32) *train.ShardedAdam {
	return train.NewShardedAdam(weightDecay)
}

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
	// Routing records MoE gate decisions for a batch.
	Routing = moe.Routing
	// Optimizer updates parameters from gradients.
	Optimizer = train.Optimizer
	// Schedule maps steps to learning rates.
	Schedule = train.Schedule
	// Metrics summarizes a single-rank training step.
	Metrics = train.Metrics
	// A2AAlgo selects the MoE all-to-all algorithm.
	A2AAlgo = moe.A2AAlgo
)

// All-to-all algorithm choices for ModelConfig.Algo.
const (
	A2AAuto         = moe.Auto
	A2ADirect       = moe.Direct
	A2AHierarchical = moe.Hierarchical
)

// Routing disciplines for GateConfig.Mode / ModelConfig.RouteMode.
const (
	RouteTokenChoice  = moe.TokenChoice
	RouteCapacityDrop = moe.CapacityDrop
	RouteExpertChoice = moe.ExpertChoice
)

// Wire-format layer for the MoE dispatch/combine exchange.
type (
	// Codec selects the on-the-wire element encoding for payloads
	// crossing supernodes.
	Codec = mpi.Codec
	// CommConfig selects the MoE wire codec and comm/compute overlap
	// (ModelConfig.Comm, or NewDistMoEComm directly).
	CommConfig = moe.CommConfig
	// SendBuf is the flattened, pooled per-destination send buffer.
	SendBuf = mpi.SendBuf
	// RecvBuf is the flattened per-source receive view.
	RecvBuf = mpi.RecvBuf
	// Exchange is the two-phase (overlapped) alltoallv handle.
	Exchange = mpi.Exchange
	// WireStats splits a communicator's exchange traffic by tier,
	// post-codec vs raw.
	WireStats = mpi.WireStats
)

// Wire codec choices for CommConfig.Codec.
const (
	FP32Wire = mpi.FP32Wire
	FP16Wire = mpi.FP16Wire
)

// NewSendBuf allocates a flattened send buffer with counts[d] floats
// bound for each destination rank d.
func NewSendBuf(counts []int) *SendBuf { return mpi.NewSendBuf(counts) }

// ParseCodec maps "fp32"/"fp16" to a wire codec.
func ParseCodec(s string) (Codec, error) { return mpi.ParseCodec(s) }

// NewDistMoEComm builds a distributed MoE layer with an explicit wire
// configuration; call inside World.Run on every rank of comm.
func NewDistMoEComm(name string, r *RNG, cfg GateConfig, hidden int, comm *Comm, algo A2AAlgo, cc CommConfig) *DistMoE {
	return moe.NewDistMoEComm(name, r, cfg, hidden, comm, algo, cc)
}

// Analytic all-to-all strategies for Deployment.A2A.
const (
	ProjA2AFlat         = perfmodel.A2AFlat
	ProjA2AHierarchical = perfmodel.A2AHierarchical
)

// Network hierarchy levels, for reading World traffic statistics.
const (
	LevelSelf      = simnet.SelfLevel
	LevelNode      = simnet.NodeLevel
	LevelSupernode = simnet.SupernodeLevel
	LevelMachine   = simnet.MachineLevel
)

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

// TextCorpus serves byte-level batches from real text.
type TextCorpus = data.TextCorpus

// NewTextCorpus reads all of r and serves random byte windows.
func NewTextCorpus(r io.Reader, seqLen int, seed uint64) (*TextCorpus, error) {
	return data.NewTextCorpus(r, seqLen, seed)
}

// EncodeText converts a string to byte token ids; DecodeText inverts
// it.
func EncodeText(s string) []int   { return data.Encode(s) }
func DecodeText(ids []int) string { return data.Decode(ids) }

// Evaluate runs a forward-only evaluation pass on the synthetic
// corpus (loss, perplexity, accuracy).
func Evaluate(model *GPT, corpus *Corpus, batches, batchSize int) train.EvalResult {
	return train.Evaluate(model, corpus, batches, batchSize)
}

// NewLocalMoE builds a single-rank MoE layer with all experts local.
func NewLocalMoE(name string, r *RNG, cfg GateConfig, hidden int) *LocalMoE {
	return moe.NewLocalMoE(name, r, cfg, hidden)
}

// NewTrainer wires a model, corpus, and optimizer into a single-rank
// training loop.
func NewTrainer(model *GPT, corpus *Corpus, opt Optimizer, cfg TrainConfig) (*Trainer, error) {
	return train.NewTrainer(model, corpus, opt, cfg)
}

// SaveCheckpoint writes params to path.
func SaveCheckpoint(path string, step int64, params []*Param) error {
	return train.SaveFile(path, train.Header{Step: step}, params)
}

// LoadCheckpoint restores params from path and returns the saved
// step.
func LoadCheckpoint(path string, params []*Param) (int64, error) {
	hdr, err := train.LoadFile(path, params)
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
	// CkptWriter is one rank's end of the sharded checkpoint protocol.
	CkptWriter = ckpt.Writer
	// CkptConfig configures a rank's checkpoint writer.
	CkptConfig = ckpt.Config
	// CkptLayout records the parallel grid a checkpoint was written
	// under.
	CkptLayout = ckpt.Layout
	// FTConfig parameterizes one fault-tolerant run.
	FTConfig = parallel.FTConfig
	// FTResult summarizes a fault-tolerant run (goodput, recoveries,
	// phase timing).
	FTResult = parallel.FTResult
	// RankFailedError reports a failed rank detected inside a
	// collective or receive.
	RankFailedError = mpi.RankFailedError
	// PayloadFaultError reports a payload dropped or corrupted on the
	// wire.
	PayloadFaultError = mpi.PayloadFaultError
)

// Graceful degradation: reliable wire transport, health telemetry,
// and the escalation policy that ties the tiers together.
type (
	// TransportConfig bounds the reliable transport's retransmit
	// engine (retry budget, ack timeout, backoff schedule).
	TransportConfig = mpi.TransportConfig
	// TransportStats counts retransmitted/recovered/exhausted frames
	// and the virtual seconds spent in timeouts and backoff.
	TransportStats = mpi.TransportStats
	// Escalation selects how the fault-tolerant loop answers wire
	// faults and degradation (FaultPolicy.Escalation).
	Escalation = train.Escalation
	// HealthConfig tunes the per-rank EWMA + hysteresis classifier.
	HealthConfig = health.Config
	// HealthMonitor classifies ranks Healthy/Degraded/Failed from
	// link-delay scores.
	HealthMonitor = health.Monitor
	// HealthState is a rank's classification.
	HealthState = health.State
	// OptStateCarrier lets expert migration ship optimizer state
	// (train.Adam implements it).
	OptStateCarrier = moe.OptStateCarrier
)

// Escalation policies for FaultPolicy.Escalation.
const (
	// EscalateRollback treats every wire fault as a rank failure
	// (shrink + rollback).
	EscalateRollback = train.EscalateRollback
	// EscalateRetransmit arms reliable transport; only retry
	// exhaustion escalates to rollback.
	EscalateRetransmit = train.EscalateRetransmit
	// EscalateTiered adds health-monitor-driven straggler mitigation
	// between retransmission and rollback.
	EscalateTiered = train.EscalateTiered
)

// Health classifications reported by the monitor.
const (
	RankHealthy  = health.Healthy
	RankDegraded = health.Degraded
	RankFailed   = health.Failed
)

// ParseEscalation maps "rollback"/"retransmit"/"tiered" to an
// Escalation.
func ParseEscalation(s string) (Escalation, error) { return train.ParseEscalation(s) }

// NewHealthMonitor creates a monitor over n ranks, all initially
// Healthy.
func NewHealthMonitor(n int, cfg HealthConfig) *HealthMonitor { return health.NewMonitor(n, cfg) }

// CollectHealthScores aggregates each rank's link-delay observation
// row up the supernode hierarchy and broadcasts the suspect-robust
// per-rank scores; collective over c.
func CollectHealthScores(c *Comm, row []float64) []float64 { return health.CollectScores(c, row) }

// NewFaultInjector draws a reproducible fault schedule from cfg.
func NewFaultInjector(cfg FaultConfig) (*FaultInjector, error) { return fault.New(cfg) }

// ScriptedFaults builds an injector with an explicit event list.
func ScriptedFaults(cfg FaultConfig, events []FaultEvent) (*FaultInjector, error) {
	return fault.Scripted(cfg, events)
}

// Protect runs fn and converts rank-failure or wire-fault panics into
// typed errors — the boundary a fault-tolerant loop wraps around
// communication-bearing code.
func Protect(fn func()) error { return mpi.Protect(fn) }

// RunFaultTolerant trains cfg.Steps steps on w, recovering in-run from
// the injector's failures within the policy's budget.
func RunFaultTolerant(w *World, cfg FTConfig, inj *FaultInjector) (*FTResult, error) {
	return parallel.RunFaultTolerant(w, cfg, inj)
}

// NewCkptWriter builds a sharded checkpoint writer for the rank
// owning c.
func NewCkptWriter(cfg CkptConfig, c *Comm) *CkptWriter { return ckpt.NewWriter(cfg, c) }

// CkptRestore reassembles one rank's state from a committed sharded
// checkpoint, possibly written under a different parallel layout.
func CkptRestore(dir string, step int64, shard int, params []*Param) (ckpt.RestoreResult, error) {
	return ckpt.Restore(dir, step, shard, params)
}

// CkptLatest returns the highest committed checkpoint step under dir,
// or -1.
func CkptLatest(dir string) (int64, error) { return ckpt.Latest(dir) }

// Inference & serving: KV-cache decode, continuous batching, and
// SLO-aware admission (see internal/serve).
type (
	// KVCache holds one sequence's per-layer cached keys and values.
	KVCache = nn.KVCache
	// InferRun pairs a sequence's KV cache with the rows it
	// contributes to a mixed prefill/decode step.
	InferRun = nn.InferRun
	// ServeRequest is one request of the synthetic serving stream.
	ServeRequest = serve.Request
	// ServeWorkload shapes the seeded Poisson request generator.
	ServeWorkload = serve.WorkloadConfig
	// ServeConfig drives one serving run (batching policy, KV budget,
	// admission bounds, cost model).
	ServeConfig = serve.Config
	// ServeResult aggregates a serving run's counters and latency
	// histograms.
	ServeResult = serve.Result
	// Batching selects the serving batching policy.
	Batching = serve.Batching
	// Histogram is a mergeable log-bucket histogram (latency
	// quantiles across ranks).
	Histogram = metrics.Histogram
)

// Batching policies for ServeConfig.Batching.
const (
	ServeSerial     = serve.Serial
	ServeStatic     = serve.Static
	ServeContinuous = serve.Continuous
)

// Serve runs the serving engine over this rank's requests; collective
// over c (single-rank worlds work too). Returns the local result —
// merge with ServeResult.MergeAcross for the world view.
func Serve(model *GPT, c *Comm, cfg ServeConfig, reqs []ServeRequest) ServeResult {
	return serve.Run(model, c, cfg, reqs)
}

// PartitionRequests deals a request stream round-robin across ranks.
func PartitionRequests(reqs []ServeRequest, rank, size int) []ServeRequest {
	return serve.Partition(reqs, rank, size)
}

// Fault-tolerant serving fleet: a front-end router over N model
// replicas with health-routed admission, crash failover from
// inference checkpoints, hedged retries, and degraded-mode SLO
// shedding (see internal/serve/fleet).
type (
	// FleetConfig assembles one fleet run.
	FleetConfig = fleet.Config
	// FleetResult is the fleet-level outcome; its counters partition
	// the request stream exactly.
	FleetResult = fleet.Result
	// FleetPolicy selects how much of the robustness stack is active.
	FleetPolicy = fleet.Policy
)

// Fleet failover policies for FleetConfig.Policy.
const (
	FleetNoFailover    = fleet.NoFailover
	FleetFailover      = fleet.Failover
	FleetFailoverHedge = fleet.FailoverHedge
)

// RunFleet serves cfg.Requests through a replicated fleet on the
// shared virtual timeline. Same seed, same Result — and every served
// token is bit-exact with the fault-free single-replica decode.
func RunFleet(cfg FleetConfig) (FleetResult, error) { return fleet.Run(cfg) }

// SaveForInference writes a weights-only single-shard checkpoint — the
// artifact fleet replicas restore from after a crash.
func SaveForInference(dir string, step int64, params []*Param) error {
	return ckpt.SaveForInference(dir, step, params)
}

// NewHistogram builds a log-bucket histogram: bucket i spans
// [lo*growth^i, lo*growth^(i+1)).
func NewHistogram(lo, growth float64, buckets int) *Histogram {
	return metrics.NewHistogram(lo, growth, buckets)
}

// NewLatencyHistogram builds a histogram sized for second-scale
// latencies at ~10% resolution.
func NewLatencyHistogram() *Histogram { return metrics.NewLatencyHistogram() }

// LoadForInference restores model weights from the newest committed
// sharded checkpoint under dir, whatever parallel layout wrote it.
func LoadForInference(dir string, params []*Param) (ckpt.Manifest, train.Header, error) {
	return ckpt.LoadForInference(dir, params)
}

// Deployment autotuning (internal/autotune): enumerate the feasible
// deployment space, rank it with the unified analytic cost model,
// validate the top candidates on the virtual clock, and project the
// winner to the full 96,000-node machine (see cmd/bagualu-plan).
type (
	// StepPrediction is the analytic projection of one training step
	// (component times, wire bytes, goodput under the fault model).
	StepPrediction = perfmodel.StepPrediction
	// FaultModel parameterizes the failure process and checkpoint
	// policy the goodput projection prices.
	FaultModel = perfmodel.FaultModel
	// ConfigError is the typed rejection of an inconsistent
	// deployment (grid mismatch, EP not dividing the experts, ZeRO
	// with expert migration, ...).
	ConfigError = perfmodel.ConfigError
	// AutotuneConfig parameterizes one autotuning run.
	AutotuneConfig = autotune.Config
	// AutotuneCandidate is one point of the deployment search space.
	AutotuneCandidate = autotune.Candidate
	// AutotunePlan is the full outcome: ranking, validation,
	// agreement, and the full-scale projection (R17 tables).
	AutotunePlan = autotune.Plan
	// AutotuneProjection is the winner extrapolated to full scale.
	AutotuneProjection = autotune.Projection
	// ShortRunConfig drives one headless measurement run of a
	// candidate deployment on the virtual clock.
	ShortRunConfig = parallel.ShortRunConfig
	// ShortRunResult is the measured outcome of a short run.
	ShortRunResult = parallel.ShortRunResult
)

// Autotune runs the enumerate → score → validate → extrapolate
// pipeline and returns the plan; deterministic per seed.
func Autotune(cfg AutotuneConfig) (*AutotunePlan, error) { return autotune.Run(cfg) }

// ShortRun measures a candidate deployment for a few simulated
// training steps and returns the virtual-clock measurement.
func ShortRun(cfg ShortRunConfig) (ShortRunResult, error) { return parallel.ShortRun(cfg) }

// OptimizerFactory builds one optimizer per rank: ZeRO-sharded Adam
// when zero is set, replicated Adam otherwise. Sharing one optimizer
// instance across ranks races; every rank needs its own.
func OptimizerFactory(zero bool, weightDecay float32) func() train.Optimizer {
	return train.OptimizerFactory(zero, weightDecay)
}

// KendallTau computes the Kendall rank correlation between paired
// samples — the agreement statistic the autotuner reports between
// analytic and measured orderings.
func KendallTau(a, b []float64) float64 { return autotune.KendallTau(a, b) }
