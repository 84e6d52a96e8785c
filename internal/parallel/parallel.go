// Package parallel implements BaGuaLu's hybrid "MoDa" parallelization
// strategy: every rank is simultaneously a data-parallel worker (it
// trains on its own token shard) and an expert-parallel worker (it
// hosts a shard of every MoE layer's expert pool).
//
// The process grid is the folded [pp, dp, ep] layout.Grid, whose fold
// table decides every group the engine splits; depth 1 (the default)
// is the MoDa grid itself. Expert-parallel groups are contiguous rank ranges, so MoE
// all-to-all traffic stays as low in the network hierarchy as the
// machine allows; data-parallel groups stride across them. Gradient
// synchronization is two-tier:
//
//   - dense parameters (attention, layer norms, embeddings, gates)
//     are replicated on every rank of a stage (the world at depth 1)
//     and all-reduced over it;
//   - expert parameters are replicated only across the ranks holding
//     the same shard (one per expert-parallel group) and all-reduced
//     over that data-parallel communicator.
//
// Pipeline stages are contiguous rank blocks. Each owns a contiguous
// chunk of the model's layers, and every step runs the 1F1B or
// interleaved schedule of internal/parallel/pipe over them — at depth 1
// one chunk holding every layer, where the schedule is plain gradient
// accumulation. Only the global gradient norm crosses stage boundaries.
package parallel

import (
	"fmt"
	"math"
	"slices"

	"bagualu/internal/ckpt"
	"bagualu/internal/data"
	"bagualu/internal/metrics"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/parallel/layout"
	"bagualu/internal/parallel/pipe"
	"bagualu/internal/parallel/schedule"
	"bagualu/internal/tensor"
	"bagualu/internal/train"
)

// Strategy is the process grid: the folded [pp, dp, ep] layout.Grid.
type Strategy = layout.Grid

// ModelConfig describes the MoE transformer to build.
type ModelConfig struct {
	GPT nn.GPTConfig

	// MoE configuration. NumExperts is the total pool per MoE layer
	// and must be divisible by ExpertParallel. MoEEvery selects which
	// blocks use MoE (every n-th block; 1 = all, 0 = none -> dense
	// baseline).
	NumExperts     int
	TopK           int
	CapacityFactor float32
	AuxLossWeight  float32
	ZLossWeight    float32
	MoEHidden      int
	MoEEvery       int
	Algo           moe.A2AAlgo

	// RouteMode selects the gate's routing discipline. The zero value
	// is moe.TokenChoice — dropless routing with exact counts;
	// moe.CapacityDrop restores the legacy capacity-truncation
	// baseline (CapacityFactor then applies) and moe.ExpertChoice the
	// experts-pick-tokens ablation.
	RouteMode moe.RouteMode

	// Comm selects the MoE wire behavior: on-the-wire codec for
	// cross-supernode payloads and two-phase comm/compute overlap.
	// The zero value is the FP32 blocking path.
	Comm moe.CommConfig

	// MoESimFLOPS, when positive, makes the MoE layers charge expert
	// compute to the virtual clock at this rate (FLOP/s per rank), so
	// overlap shows up in simulated step time. It charges expert GEMMs
	// inline inside the exchange window. It composes with
	// SetComputeRate: when both are set, the per-chunk charge leaves the
	// expert share out, so dense compute is priced per chunk pass and
	// expert compute inline, without double-pricing either.
	MoESimFLOPS float64

	// RecomputeEvery, when positive, enables activation recomputation:
	// every n-th block (1 = all) discards its activations and replays
	// its forward during backward (see nn.GPT.RecomputePolicy). A
	// replayed MoE layer re-runs its all-to-alls, so dispatch traffic
	// grows with the marked share — the real memory/communication trade
	// at scale.
	RecomputeEvery int
}

// Validate checks the model configuration.
func (m ModelConfig) Validate() error {
	if err := m.GPT.Validate(); err != nil {
		return err
	}
	if m.MoEEvery > 0 {
		if m.NumExperts <= 0 || m.MoEHidden <= 0 {
			return fmt.Errorf("parallel: MoE enabled but experts=%d hidden=%d", m.NumExperts, m.MoEHidden)
		}
	}
	return nil
}

// StepStats aggregates one engine step across ranks.
type StepStats struct {
	Step      int
	Loss      float32    // world-mean cross-entropy
	AuxLoss   float32    // world-mean auxiliary loss
	Overflow  int        // total dropped assignments (CapacityDrop mode only; 0 when dropless)
	GradNorm  float32    // global pre-clip gradient norm, the same on every rank
	MoE       moe.Timing // accumulated MoE phase breakdown
	SimTime   float64    // virtual seconds elapsed on this rank
	TokensPer float64    // tokens/virtual-second across the world (0 if no sim time)

	// Wire is this rank's MoE exchange traffic for the step, post-
	// codec vs raw, split by network tier (see mpi.WireStats).
	Wire mpi.WireStats

	// Memory-capacity phase time for this step, in virtual seconds
	// (see metrics.PhaseGradSync etc.): the exposed gradient sync (the
	// wait for the groups' reduce-scatters or all-reduces after the
	// backward, which hid the rest), the local shard update under ZeRO,
	// the wait for the parameter all-gathers, the recomputation forward
	// replay, and optimizer-state offload traffic. Every phase field is
	// this step's delta of the rank's phase record (mpi.Comm.Phases).
	GradSync       float64
	OptimizerShard float64
	ParamGather    float64
	RecomputeSim   float64
	OffloadSim     float64

	// BubbleSim is virtual time this rank's pipeline stage spent
	// stalled on boundary activation/gradient receives during the step
	// (metrics.PhaseBubble; zero at depth 1).
	BubbleSim float64

	// ComputeSim is virtual time this rank's clock was charged for model
	// FLOPs during the step: the runner's chunk passes, recompute replays
	// included (metrics.PhaseCompute plus metrics.PhaseRecompute), and
	// the expert GEMMs MoE layers price inline. Zero unless a compute
	// rate is set.
	ComputeSim float64

	health []float64 // the step's per-global-rank slowness scores, when the engine runs a health round
}

// Engine is the per-rank training engine. Construct one inside
// World.Run with the same seed on every rank.
type Engine struct {
	Comm     *mpi.Comm
	EP       *mpi.Comm // expert-parallel group (contiguous ranks)
	DP       *mpi.Comm // data-parallel group (strided ranks)
	Stage    *mpi.Comm // the stage's folded grid, the dense replication group (Comm at depth 1)
	PPComm   *mpi.Comm // pipeline column, comm rank == stage (one rank at depth 1)
	Strategy Strategy
	Model    *nn.GPT
	Trainer  *train.Trainer

	part []schedule.Chunk // the global chunk partition

	moeLayers    []*moe.DistMoE
	denseParams  []*nn.Param
	expertParams []*nn.Param

	// groups cut the owned gradients into the syncs the backward issues
	// as it finishes their units; syncs[i] is the step's sync of groups[i],
	// nil until issued, and syncs is empty until the step's first issue.
	groups []gradGroup
	syncs  []*mpi.Request

	batch        int
	clipNorm     float32
	lastGradNorm float32
	computeRate  float64 // virtual FLOP/s per rank; 0 = don't charge compute

	// zero is non-nil when the trainer's optimizer is the ZeRO-sharded
	// Adam; each group's sync then reduce-scatters instead of
	// all-reducing (the optimizer updates the shard and all-gathers the
	// parameters), and expert migration (rebalance/mitigate) is rejected
	// because moment ranges span ranks.
	zero      *train.ShardedAdam
	offloadBW float64 // host-memory bytes/s for optimizer-state offload; 0 = resident

	phasePrev [len(stepPhases)]float64 // the record's stepPhases at the last step's end

	// health, when non-nil, is the fault-tolerant loop's telemetry round
	// over Comm; startScalars runs it beside the statistics gather.
	health       func() []float64
	scalars      []*mpi.Request
	sums, scores []float64
	sent         train.Metrics // the statistics the step's gather carries
}

// stepPhases are the record phases StepStats reports per step.
var stepPhases = [...]string{
	metrics.PhaseGradSync, metrics.PhaseOptimizerShard, metrics.PhaseParamGather,
	metrics.PhaseRecompute, metrics.PhaseOffload, metrics.PhaseBubble, metrics.PhaseCompute,
}

// NewEngine builds the model, communicators, corpus shard, and
// trainer for this rank. seed must match across ranks; the corpus is
// automatically decorrelated per rank.
func NewEngine(c *mpi.Comm, strat Strategy, mc ModelConfig, corpusCfg data.CorpusConfig, tc train.Config, opt train.Optimizer, seed uint64) (*Engine, error) {
	if err := mc.Validate(); err != nil {
		return nil, err
	}
	experts := 0
	if mc.MoEEvery > 0 {
		experts = mc.NumExperts
	}
	if err := strat.Check(c.Size(), experts, max(tc.Accum, 1)); err != nil {
		return nil, err
	}

	part, err := schedule.PartitionLayers(mc.GPT.Layers, strat.PP()*strat.VPP())
	if err != nil {
		return nil, err
	}

	e := &Engine{part: part, batch: tc.Batch, clipNorm: tc.ClipNorm}
	// The engine clips by the *distributed* global norm after the
	// gradient sync; the trainer's local clip would use a norm that
	// differs across ranks (expert shards differ) and desynchronize
	// the dense replicas.
	tc.ClipNorm = 0
	e.splitGrid(c, strat)

	r := tensor.NewRNG(seed)
	var ffn nn.FFNFactory
	if mc.MoEEvery > 0 {
		ffn = func(block int, name string, rr *tensor.RNG) nn.Layer {
			if block%mc.MoEEvery != 0 {
				return nn.NewFeedForward(name+".dense", rr, mc.GPT.Dim, mc.GPT.FFNHidden)
			}
			gc := moe.GateConfig{
				Dim:            mc.GPT.Dim,
				NumExperts:     mc.NumExperts,
				TopK:           mc.TopK,
				Mode:           mc.RouteMode,
				CapacityFactor: mc.CapacityFactor,
				AuxLossWeight:  mc.AuxLossWeight,
				ZLossWeight:    mc.ZLossWeight,
			}
			m := moe.NewDistMoEComm(name, rr, gc, mc.MoEHidden, e.EP, mc.Algo, mc.Comm)
			m.SimRate = mc.MoESimFLOPS
			e.moeLayers = append(e.moeLayers, m)
			return m
		}
	}
	e.Model = nn.NewGPT(mc.GPT, r, ffn)
	if mc.RecomputeEvery > 0 {
		pol := make([]bool, mc.GPT.Layers)
		for i := range pol {
			pol[i] = i%mc.RecomputeEvery == 0
		}
		e.Model.RecomputePolicy = pol
	}

	// Per-rank corpus shard: decorrelate by within-stage index (the
	// global rank at depth 1) — every rank of a pipeline column draws the
	// identical token stream, so activations are the only cross-stage
	// traffic.
	cc := corpusCfg
	cc.Seed = corpusCfg.Seed + uint64(strat.Coord(layout.AxisStage, c.Rank()))*1_000_003
	corpus, err := data.NewSynthetic(cc)
	if err != nil {
		return nil, err
	}

	tr, err := train.NewTrainer(e.Model, corpus, opt, tc)
	if err != nil {
		return nil, err
	}
	e.Trainer = tr
	e.phaseDeltas()
	// The optimizer, precision policy, and checkpoints operate on the
	// stage-owned parameter subset; the trainer's step runs the stage's
	// schedule.
	e.repartitionParams()
	e.buildRunner()
	e.installSync(opt)
	return e, nil
}

// splitGrid builds the communicators for strat over c, one Split per
// group of the grid's fold table. Inside a stage the MoDa grid appears
// (contiguous EP groups, strided DP groups); the pipeline column links
// the same within-stage index across stages, so the column comm's rank
// equals the pipeline stage. At depth 1 the stage is c and the column is
// the rank alone, so neither needs a Split. Collective: every rank of c
// must call it with the same strategy, which Check accepted for c.
func (e *Engine) splitGrid(c *mpi.Comm, strat Strategy) {
	e.Comm, e.Strategy = c, strat
	rank := c.Rank()
	within := strat.Coord(layout.AxisStage, rank)
	e.Stage, e.PPComm = c, c.Self()
	if strat.PP() > 1 {
		e.Stage = c.Split(strat.Color(layout.AxisStage, rank), rank)
	}
	e.EP = e.Stage.Split(strat.Color(layout.AxisExpert, rank), within)
	e.DP = e.Stage.Split(strat.Color(layout.AxisData, rank), within)
	if strat.PP() > 1 {
		e.PPComm = c.Split(strat.Color(layout.AxisPipe, rank), rank)
	}
}

// A gradGroup is one gradient sync: a unit's dense parameters, reduced
// over the stage, or its expert parameters, reduced over the
// data-parallel communicator. It is issued when its unit at finishes on
// the step's last micro-batch — an MoE block's experts from inside the
// block's backward. The embeddings join block 0's dense group, which
// they finish right after and issue.
type gradGroup struct {
	train.ShardGroup
	at nn.Unit
}

// repartitionParams cuts the parameters of the rank's stage chunks into
// dense and expert-sharded by their units (nn.GPT.Units), builds the
// gradient groups, and moves the trainer onto them
// (train.Trainer.ReformParams keeps FP32 masters and the loss-scale
// state). Every re-partition goes through it: NewEngine, Reform after a
// shrink, Mitigate and RebalanceExperts after a migration.
func (e *Engine) repartitionParams() {
	stage := e.Strategy.Coord(layout.AxisPipe, e.Comm.Rank())
	var owned []*nn.Param
	e.denseParams, e.expertParams, e.groups = nil, nil, nil
	for v := 0; v < e.Strategy.VPP(); v++ {
		c := e.part[v*e.Strategy.PP()+stage]
		units := e.Model.Units(c.Lo, c.Hi)
		for i := len(units) - 1; i >= 0; i-- { // model order
			u := units[i]
			owned = append(owned, u.Params...)
			if u.Experts {
				e.expertParams = append(e.expertParams, u.Params...)
			} else {
				e.denseParams = append(e.denseParams, u.Params...)
			}
		}
		// A later chunk's groups go first, as a backward finishes it first.
		e.groups = append(e.chunkGroups(units), e.groups...)
	}
	e.Trainer.ReformParams(owned)
}

// chunkGroups cuts one chunk's units, in the order a backward finishes
// them, into gradient groups: each block's dense group ahead of its
// expert group, the order the syncs are joined and ZeRO binds them. An
// empty group is left out.
func (e *Engine) chunkGroups(units []nn.Unit) []gradGroup {
	var gs []gradGroup
	var experts gradGroup
	for i := 0; i < len(units); i++ {
		u := units[i]
		if u.Experts {
			experts = gradGroup{train.ShardGroup{Comm: e.DP, Params: u.Params}, u}
			continue
		}
		dense := gradGroup{train.ShardGroup{Comm: e.Stage, Params: u.Params}, u}
		if i+1 < len(units) && units[i+1].ID == nn.EmbedUnit {
			i++
			dense.at, dense.Params = units[i], append(slices.Clone(units[i].Params), u.Params...)
		}
		for _, g := range []gradGroup{dense, experts} {
			if len(g.Params) > 0 {
				gs = append(gs, g)
			}
		}
		experts = gradGroup{}
	}
	return gs
}

// buildRunner installs the stage's schedule runner for the current
// partition into the trainer, with the micro-batch count the trainer was
// built with, pricing each unit by unitFlops at the compute rate.
func (e *Engine) buildRunner() {
	e.Trainer.Runner = &pipe.Runner{
		Stages:   e.Strategy.PP(),
		Virtual:  e.Strategy.VPP(),
		Micro:    e.Trainer.Runner.Micro,
		Stage:    e.Strategy.Coord(layout.AxisPipe, e.Comm.Rank()),
		Comm:     e.PPComm,
		Model:    e.Model,
		Part:     e.part,
		Rows:     e.batch * e.Model.Cfg.SeqLen,
		Flops:    e.unitFlops,
		Rate:     e.computeRate,
		Finished: e.unitFinished,
	}
}

// unitFlops prices one micro-batch forward pass of unit u: 2 FLOPs per
// active parameter per token, plus a block's attention quadratic term (a
// backward is twice that), and the weight-gradient share of its backward,
// 2 FLOPs per active parameter per token (the input half keeps the
// quadratic term's backward). An expert unit's active parameters are its
// top-k experts', priced only when the MoE layers do not self-charge
// their GEMMs inline on the virtual clock. Every term is an
// integer-valued float64, so the runner's chunk sums are exact.
func (e *Engine) unitFlops(u nn.Unit) (fwd, wgrad float64) {
	tokens := float64(e.batch * e.Model.Cfg.SeqLen)
	active := float64(nn.NumParams(u.Params))
	var quad float64
	switch {
	case u.Experts:
		active = 0
		if m, ok := e.Model.Blocks[u.Block].FFN.(*moe.DistMoE); ok && !e.moeSelfCharges() {
			active = float64(m.Cfg.TopK) * float64(m.PerExpertParams())
		}
	case u.Block >= 0:
		quad = 4 * float64(e.Model.Cfg.SeqLen) * float64(e.Model.Cfg.Dim)
	}
	return tokens * (2*active + quad), tokens * 2 * active
}

// replicaGroups names the engine's two replication groups: dense
// parameters are identical on every rank of the stage, expert
// parameters on every rank of the data-parallel communicator.
// Checkpoints deduplicate over them; gradients reduce, and ZeRO shards
// moments, over the gradient groups' parts of them.
func (e *Engine) replicaGroups() []train.ShardGroup {
	return []train.ShardGroup{
		{Comm: e.Stage, Params: e.denseParams},
		{Comm: e.DP, Params: e.expertParams},
	}
}

// CheckpointShard returns the tensors this rank writes to a sharded
// checkpoint: its 1/R slice of every tensor it shares with R-1
// replicas (weights, moments, masters), so the world's shards hold each
// logical byte once. Restore reads the same slices back.
func (e *Engine) CheckpointShard() []*nn.Param {
	return e.Trainer.CheckpointShard(e.replicaGroups()...)
}

// CheckpointLayout is the manifest's record of the grid this rank's
// CheckpointShard was cut under.
func (e *Engine) CheckpointLayout() ckpt.Layout {
	g := e.Strategy
	return ckpt.Layout{
		WorldSize:      e.Comm.Size(),
		DataParallel:   g.DataParallel,
		ExpertParallel: g.ExpertParallel,
		Pipeline:       g.Pipeline,
		Virtual:        g.Virtual,
	}
}

// Restore brings the engine to the start of a step — after a shrink,
// call it right after Reform. Collective over the engine's communicator.
//
// With live non-nil the survivors agreed that each still holds, in
// memory, every tensor of its CheckpointShard groups at the start of
// the step a failure interrupted (the recovery vote in ft.go): the
// tensors stay as they are and only *live, this rank's step-start
// header, is applied. Nothing is read and nothing is gathered.
//
// Otherwise it loads the committed checkpoint of step under dir — the
// mirror image of saving CheckpointShard. Each rank reads only its own
// 1/R slice views (they alias the live weights, moments and masters, so
// the read lands in place; ZeRO moment shards are rank-exclusive and
// arrive whole), pays diskSeconds of virtual time for the bytes it
// read (booked as metrics.PhaseRecoveryRead), and then every replica
// group all-gathers its flat concat over the interconnect
// (metrics.PhaseRecoveryGather), so each logical byte leaves the disk
// once however many replicas need it. The checkpoint may have been
// written under a different layout: a slice boundary that falls inside
// a saved record reads that record whole. Rank r adopts the header of
// shard r. It returns the shard bytes this rank read from disk.
//
// Either way a pipeline column then continues its stage-0 member's data
// stream, so every stage of the column scores the batch stage 0 feeds.
func (e *Engine) Restore(dir string, step int64, live *ckpt.Header, diskSeconds func(bytes int64) float64) (int64, error) {
	var bytesRead int64
	hdr := live
	if hdr == nil {
		res, err := ckpt.Restore(dir, step, e.Comm.Rank(), e.CheckpointShard())
		if err != nil {
			return res.BytesRead, err
		}
		bytesRead = res.BytesRead
		e.Comm.Compute(diskSeconds(res.BytesRead), metrics.PhaseRecoveryRead)
		t0 := e.Comm.Now()
		e.Trainer.GatherShards(e.replicaGroups()...)
		e.Comm.Phases().Observe(metrics.PhaseRecoveryGather, e.Comm.Now()-t0)
		hdr = &res.Header
	}
	e.Trainer.ApplyRestored(*hdr)
	streams := e.PPComm.AllGatherInts([]int{int(e.Trainer.Corpus.RNGState())})
	e.Trainer.Corpus.SetRNGState(uint64(streams[0]))
	return bytesRead, nil
}

// holdsOnly reports whether every parameter of the rank's replica
// groups is in held — after Reform, whether the new layout handed this
// rank no tensor (a fresh expert, a newly owned layer) it did not train
// before.
func (e *Engine) holdsOnly(held map[*nn.Param]bool) bool {
	for _, g := range e.replicaGroups() {
		for _, p := range g.Params {
			if !held[p] {
				return false
			}
		}
	}
	return true
}

// replicated returns the set of parameters in the rank's replica groups.
func (e *Engine) replicated() map[*nn.Param]bool {
	held := map[*nn.Param]bool{}
	for _, g := range e.replicaGroups() {
		for _, p := range g.Params {
			held[p] = true
		}
	}
	return held
}

// installSync binds the gradient-synchronization path matching the
// optimizer. A *train.ShardedAdam gets the ZeRO path: its moment
// shards are (re)partitioned over the gradient groups, in group order,
// and each group's sync reduce-scatters instead of all-reducing. Reform
// calls this again after a shrink so the shards re-partition over the
// surviving layout.
func (e *Engine) installSync(opt train.Optimizer) {
	e.zero = nil
	if z, ok := opt.(*train.ShardedAdam); ok {
		groups := make([]train.ShardGroup, len(e.groups))
		for i, g := range e.groups {
			groups[i] = g.ShardGroup
		}
		z.Bind(groups...)
		if e.computeRate > 0 {
			z.UpdateRate = e.computeRate / adamFlopsPerElem
		}
		e.zero = z
	}
	e.Trainer.PostBackward = e.syncGradients
}

// adamFlopsPerElem is the analytic cost of one Adam element update
// (two moment EMAs, bias corrections, rsqrt, weight-decay, axpy) used
// to price the shard update when a compute rate is set.
const adamFlopsPerElem = 12

// SetComputeRate makes the runner charge simulated compute time (each
// chunk pass's analytic FLOPs divided by rate) to the rank's virtual
// clock as the pass runs, so virtual-time throughput reflects compute
// as well as communication. rate is sustained FLOP/s per rank; 0
// disables.
func (e *Engine) SetComputeRate(rate float64) {
	e.computeRate = rate
	e.Trainer.Runner.Rate = rate
	if e.zero != nil {
		e.zero.UpdateRate = 0
		if rate > 0 {
			e.zero.UpdateRate = rate / adamFlopsPerElem
		}
	}
}

// EnableOffload prices optimizer-state offload to a host-memory tier:
// every step the resident moment state streams out and back at bwGiBs
// (GiB/s), charged to the rank's virtual clock as the "offload" phase.
// 0 disables (state stays resident). Capacity itself is modeled in
// perfmodel; here only the bandwidth cost is simulated.
func (e *Engine) EnableOffload(bwGiBs float64) {
	e.offloadBW = 0
	if bwGiBs > 0 {
		e.offloadBW = bwGiBs * (1 << 30)
	}
}

// OptStateBytes returns this rank's resident optimizer-state bytes:
// the owned moment shards under ZeRO, or the full Adam moments (8
// bytes per parameter element) on the unsharded path.
func (e *Engine) OptStateBytes() int64 {
	if e.zero != nil {
		return e.zero.StateBytes()
	}
	return 8 * int64(nn.NumParams(e.denseParams)+nn.NumParams(e.expertParams))
}

// phaseDeltas returns what the rank's record booked under each of
// stepPhases since the last call (since NewEngine for the first).
func (e *Engine) phaseDeltas() (d [len(stepPhases)]float64) {
	rec := e.Comm.Phases()
	for i, name := range stepPhases {
		cur := rec.Seconds(name)
		d[i], e.phasePrev[i] = cur-e.phasePrev[i], cur
	}
	return d
}

// moeSelfCharges reports whether the MoE layers price their expert
// GEMMs inline on the virtual clock.
func (e *Engine) moeSelfCharges() bool {
	for _, m := range e.moeLayers {
		if m.SimRate > 0 {
			return true
		}
	}
	return false
}

// MoELayers returns this rank's distributed MoE layers.
func (e *Engine) MoELayers() []*moe.DistMoE { return e.moeLayers }

// unitFinished is the runner's report that the step's backward has
// made unit u's gradients final: the groups u issues leave (startGroup).
// The step's first issue starts its scalar exchanges, which go ahead of
// every group's bytes.
func (e *Engine) unitFinished(u int) {
	for i, g := range e.groups {
		if g.at.ID != u {
			continue
		}
		if len(e.syncs) == 0 {
			// Every forward of the step has run, so its statistics are final:
			// they leave first, not queued behind the gradient.
			loss, aux, overflow := e.Trainer.Runner.Sums()
			e.startScalars(train.Metrics{Loss: loss, AuxLoss: aux, Overflow: overflow})
			e.syncs = append(e.syncs, make([]*mpi.Request, len(e.groups))...)
		}
		e.syncs[i] = e.startGroup(i)
	}
}

// startGroup prepares group i's gradients under the precision policy and
// defers its sync as a request (mpi.Comm.Defer): an all-reduce on the
// wire the policy names (16-bit under FP16 and Mixed, see mpi.GradWire),
// or ZeRO's reduce-scatter. Its clock starts now, and its bytes are
// booked when syncGradients joins it, into the port time the rest of the
// backward — its MoE exchanges above all — left idle.
func (e *Engine) startGroup(i int) *mpi.Request {
	g := e.groups[i]
	scale, wire := 1/float32(e.Stage.Size()), e.Trainer.MP.GradWire()
	e.Trainer.MP.PrepareGrads(g.Params)
	if e.zero != nil {
		return e.zero.StartSync(i, scale, wire)
	}
	// Expert gradients sum over the data-parallel group, which covers
	// every replica's tokens, so they too are normalized by the stage
	// size to match the dense average-loss scaling.
	return e.Comm.Defer(func() { allReduceBucketed(g.Comm, g.Params, scale, wire) })
}

// syncGradients is the sync hook. The groups' syncs were issued as the
// backward finished their units, so it joins them in group order, which
// runs their bodies — what it waits is the exposed sync — and clips by the
// distributed gradient norm. Both paths compute the norm from the same
// canonical float64 partial sums, per group and shard in rank order
// (train.ShardedNormSq over the reduced gradients,
// train.ShardedAdam.NormSq over the reduced shards), so they see
// bitwise-identical norms and make identical clip decisions. It returns
// the norm: a rank whose gradients overflowed still syncs, and its Inf —
// or a sum that overflows FP16 on the wire — reaches every rank's norm,
// so every rank skips the step together.
func (e *Engine) syncGradients(m train.Metrics) float32 {
	if len(e.syncs) != len(e.groups) || slices.Contains(e.syncs, nil) {
		panic(fmt.Sprintf("parallel: not every one of the %d gradient groups was started by the backward", len(e.groups)))
	}
	if math.Float32bits(m.Loss) != math.Float32bits(e.sent.Loss) || math.Float32bits(m.AuxLoss) != math.Float32bits(e.sent.AuxLoss) || m.Overflow != e.sent.Overflow {
		panic("parallel: the step's statistics left before its last forward")
	}
	t0 := e.Comm.Now()
	for _, r := range e.syncs {
		r.Wait()
	}
	e.dropSyncs()
	e.Comm.Phases().Observe(metrics.PhaseGradSync, e.Comm.Now()-t0)

	if e.zero != nil {
		norm := e.globalNorm(e.zero.NormSq(e.Stage), e.zero.NormSq(e.DP))
		if e.clipNorm > 0 && norm > e.clipNorm {
			e.zero.ScaleGradShards(e.clipNorm / norm)
		}
		return norm
	}
	var denseSq, expertSq float64
	for _, g := range e.groups {
		if g.Comm == e.Stage {
			denseSq += train.ShardedNormSq(g.Comm, g.Params)
		} else {
			expertSq += train.ShardedNormSq(g.Comm, g.Params)
		}
	}
	norm := e.globalNorm(denseSq, expertSq)
	if e.clipNorm > 0 && norm > e.clipNorm {
		scale := e.clipNorm / norm
		for _, p := range e.denseParams {
			tensor.ScaleInPlace(p.G, scale)
		}
		for _, p := range e.expertParams {
			tensor.ScaleInPlace(p.G, scale)
		}
	}
	return norm
}

// dropSyncs forgets the step's group syncs: joined, or abandoned by a
// failure.
func (e *Engine) dropSyncs() {
	clear(e.syncs)
	e.syncs = e.syncs[:0]
}

// startScalars starts the step's scalar exchanges as requests ahead of
// the gradient sync, so their few bytes travel under it: the world
// gather of each rank's loss, aux loss and overflow, summed in float64 in
// rank order, and the health round when the engine runs one. Neither
// needs the sync and the optimizer reads neither; Step joins both after
// it.
func (e *Engine) startScalars(m train.Metrics) {
	e.sent = m
	e.scalars = append(e.scalars[:0], e.Comm.Start(func() {
		e.sums = train.CombineF64Sums(e.Comm, float64(m.Loss), float64(m.AuxLoss), float64(m.Overflow))
	}))
	if e.health != nil {
		e.scalars = append(e.scalars, e.Comm.Start(func() { e.scores = e.health() }))
	}
}

// globalNorm combines this rank's dense and expert squared-norm
// partials into the distributed global gradient norm, identically on
// every rank: the dense part is identical on every rank of the
// replication group; the expert shards are distinct within an
// expert-parallel group (and replicated across data-parallel peers), so
// summing shard norms over the EP communicator yields the stage norm;
// the stages' partial norms then combine over the pipeline column.
func (e *Engine) globalNorm(denseSq, expertSq float64) float32 {
	totalSq := train.CombineF64Sums(e.PPComm, denseSq+train.CombineF64Sums(e.EP, expertSq)[0])[0]
	e.lastGradNorm = float32(math.Sqrt(totalSq))
	return e.lastGradNorm
}

// allReduceBucketed all-reduces one gradient group: it concatenates
// the group's gradients into one buffer, sums it on the wire w,
// rescales, and unpacks — the gradient bucketing every large-scale
// trainer applies, one collective per stretch of the backward instead
// of one per tensor, each started as the backward finishes its unit.
func allReduceBucketed(c *mpi.Comm, params []*nn.Param, scale float32, w mpi.GradWire) {
	if c.Size() == 1 {
		// Nothing to reduce with; a unit scale leaves every bit alone.
		if scale != 1 {
			for _, p := range params {
				tensor.ScaleInPlace(p.G, scale)
			}
		}
		return
	}
	if len(params) == 0 {
		return
	}
	total := 0
	for _, p := range params {
		total += p.G.Len()
	}
	buf := make([]float32, total)
	off := 0
	for _, p := range params {
		copy(buf[off:], p.G.Data)
		off += p.G.Len()
	}
	// The buffer is reduced in place; unpacking rescales in the same pass.
	buf = c.AllReduceGrads(buf, w)
	for _, p := range params {
		g := p.G.Data
		for i, v := range buf[:len(g)] {
			g[i] = v * scale
		}
		buf = buf[len(g):]
	}
}

// Step runs one synchronous training step — the trainer's step, which
// runs the stage's schedule and issues each gradient group's sync as
// the backward finishes its unit — and returns world-level statistics
// (identical on every rank). The sync hook started the step's scalar
// exchanges as requests (startScalars); Step joins them after the
// optimizer.
func (e *Engine) Step() StepStats {
	simStart := e.Comm.Now()
	// A failure abandons a step's group syncs where it struck — some
	// issued from inside an MoE layer's backward; mpi has dropped the
	// bodies that had not run.
	e.dropSyncs()
	moe0, wire0 := e.moeTime(), e.EP.WireStats()
	step := e.Trainer.Step().Step
	if e.offloadBW > 0 {
		// Offloaded optimizer state streams host→device and back once
		// per step (read moments, write updated moments).
		e.Comm.Compute(2*float64(e.OptStateBytes())/e.offloadBW, metrics.PhaseOffload)
	}

	st := StepStats{Step: step, GradNorm: e.lastGradNorm}
	d := e.phaseDeltas()
	st.GradSync, st.OptimizerShard, st.ParamGather = d[0], d[1], d[2]
	st.RecomputeSim, st.OffloadSim, st.BubbleSim = d[3], d[4], d[5]
	st.ComputeSim = d[6] + st.RecomputeSim
	for _, r := range e.scalars {
		r.Wait()
	}
	// The world sums are rounded once. The divisor is the stage size: the
	// loss lives only on last-chunk ranks and the aux loss is spread over
	// a column's stages, so the world sum counts each of the stage's
	// token streams exactly once.
	group := float64(e.Stage.Size())
	st.Loss = float32(e.sums[0] / group)
	st.AuxLoss = float32(e.sums[1] / group)
	st.Overflow = int(e.sums[2])
	st.health, e.scores = e.scores, nil
	// Every MoE layer exchanges over e.EP, so its wire counter is the
	// step's whole MoE traffic.
	st.MoE = e.moeTime().Sub(moe0)
	st.Wire = e.EP.WireStats().Sub(wire0)
	st.SimTime = e.Comm.Now() - simStart
	if st.SimTime > 0 {
		st.TokensPer = float64(e.GlobalBatchTokens()) / st.SimTime
	}
	return st
}

// moeTime sums the MoE layers' cumulative phase breakdowns.
func (e *Engine) moeTime() moe.Timing {
	var tm moe.Timing
	for _, m := range e.moeLayers {
		tm = tm.Add(m.Time)
	}
	return tm
}

// GlobalBatchTokens returns tokens consumed per step across all ranks:
// one micro-batch per rank of a stage, times the micro-batch count.
func (e *Engine) GlobalBatchTokens() int {
	return e.batch * e.Model.Cfg.SeqLen * e.Trainer.Runner.Micro * e.Stage.Size()
}

// NumParamsGlobal estimates the global parameter count: the model's
// dense params once plus this rank's expert shard times the
// expert-parallel width. The owned dense/expert sets cover only this
// rank's stage, so the count comes from the whole (replicated) model.
func (e *Engine) NumParamsGlobal() int {
	shardedLocal := 0
	for _, m := range e.moeLayers {
		shardedLocal += nn.NumParams(m.ShardedParams())
	}
	dense := e.Model.NumParams() - shardedLocal
	return dense + shardedLocal*e.Strategy.ExpertParallel
}
