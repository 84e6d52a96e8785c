package perfmodel

// Memory-capacity model: the per-node accounting that decides whether
// a parameter count fits at all, and how far each of the three
// memory-wall levers (ZeRO-sharded optimizer state, selective
// activation recomputation, host-memory offload) pushes the wall.

import (
	"fmt"

	"bagualu/internal/parallel/layout"
	"bagualu/internal/parallel/schedule"
)

// MemBreakdown is the per-node memory model, in GiB. Params and
// OptState are per-rank model state scaled to the node; Activations
// covers the local batch; HostOptState is optimizer state parked in
// the host tier (zero unless OffloadOptState).
type MemBreakdown struct {
	Params       float64 // working weights: dense replicated + expert shard
	OptState     float64 // device-resident masters + Adam moments
	Activations  float64 // live activations under the recompute policy, plus held output gradients
	HostOptState float64 // optimizer state offloaded to the host tier

	TotalGiB float64 // device-resident total (Params+OptState+Activations)
	Fits     bool    // TotalGiB within NodeMemGiB and HostOptState within HostMemGiB
}

// Memory computes the per-node memory breakdown of spec under this
// deployment: working weights at wire precision (dense replicated,
// experts sharded 1/EP); optimizer state, which ZeRO shards over the
// stage (dense) and the data-parallel group (experts); activations, of
// which a recomputed block keeps 1·d a token instead of ~6·d and a split
// backward holds ~6·d more of output gradients from B to W; and, under
// OffloadOptState, the optimizer state moved to the host tier.
func (d Deployment) Memory(spec ModelSpec) (MemBreakdown, error) {
	var mb MemBreakdown
	if err := d.ValidateFor(spec); err != nil {
		return mb, err
	}
	weightB := bytesPerElem(d.Precision)
	optB := d.Precision.BytesPerParam() - weightB

	// Pipeline stages partition the layer stack, so each rank keeps
	// only its stage's slice of the dense weights and of the expert
	// pool (stage-local experts shard 1/EP within the stage).
	dense := float64(spec.DenseParams()) / float64(d.PP())
	expertShard := float64(spec.ExpertParamsTotal()) / float64(d.ExpertParallel) / float64(d.PP())

	params := dense*weightB + expertShard*weightB
	denseOpt := dense * optB
	expertOpt := expertShard * optB
	if d.ZeRO {
		// ZeRO shards over the sync groups: dense state over the stage
		// (the whole world at PP=1), expert state over the dp group.
		stage, _ := d.Group(layout.AxisStage)
		dp, _ := d.Group(layout.AxisData)
		denseOpt /= float64(stage)
		expertOpt /= float64(dp)
	}
	opt := denseOpt + expertOpt

	// Live activation elements per token per layer: ~6·d with full
	// caching, 1·d (the block input) for a recomputed block, and ~6·d
	// more of output gradients (one per weight-gradient GEMM) while a
	// split backward waits for its W. Each rank holds the passes its
	// schedule has in flight, each over one chunk of Layers/(PP·VPP)
	// layers: on the flat grid one pass of every layer.
	replayed := 0
	for b := range spec.Layers {
		replayed += b2i(d.replays(b))
	}
	f := float64(replayed) / float64(max(spec.Layers, 1))
	tokensPerRank := float64(d.BatchPerRank * spec.SeqLen)
	layers := float64(spec.Layers) / float64(d.PP()*d.VPP())
	act := tokensPerRank * float64(spec.Dim) * layers * weightB * d.peakPasses(6*(1-f)+1*f, 6)

	var hostOpt float64
	if d.OffloadOptState {
		hostOpt, opt = opt, 0
	}

	perNode := float64(d.RanksPerNode) / (1 << 30)
	mb.Params = params * perNode
	mb.OptState = opt * perNode
	mb.Activations = act * perNode
	mb.HostOptState = hostOpt * perNode
	mb.TotalGiB = mb.Params + mb.OptState + mb.Activations
	mb.Fits = mb.TotalGiB <= d.Machine.NodeMemGiB && mb.HostOptState <= d.Machine.HostMemGiB
	return mb, nil
}

// peakPasses is the most the chunk passes of any stage's schedule
// weigh at one moment, walking the op list the runner runs
// (schedule.Schedule): a pass weighs act from its forward to its
// backward and act+dy from a split backward's B to its W.
func (d Deployment) peakPasses(act, dy float64) float64 {
	S, V := d.PP(), d.VPP()
	peak := 0.0
	for stage := 0; stage < S; stage++ {
		live, held := 0, 0
		for _, op := range schedule.Schedule(stage, S, V, d.Micro()) {
			split := schedule.Splits(op.Chunk*S + stage)
			switch {
			case op.Kind == schedule.Fwd:
				live++
			case op.Kind == schedule.Bwd && split:
				held++
			case op.Kind == schedule.Bwd:
				live--
			default: // W
				live--
				held--
			}
			peak = max(peak, float64(live)*act+float64(held)*dy)
		}
	}
	return peak
}

// MaxTrainableParams bisects the largest model (scaling the width of
// spec: Dim, FFNHidden, MoEHidden) whose memory breakdown fits this
// deployment, and returns its total parameter count with the scaled
// spec. It is the quantity the R15 experiment tabulates: baseline vs
// +ZeRO vs +recompute vs +offload per-node capacity.
func (d Deployment) MaxTrainableParams(spec ModelSpec) (int64, ModelSpec, error) {
	fits := func(k float64) (bool, ModelSpec) {
		s := scaleWidth(spec, k)
		mb, err := d.Memory(s)
		return err == nil && mb.Fits, s
	}
	if ok, _ := fits(1.0 / float64(spec.Dim)); !ok {
		return 0, spec, fmt.Errorf("perfmodel: even a width-1 model does not fit")
	}
	// Exponential search for an upper bound, then bisect.
	lo, hi := 1.0/float64(spec.Dim), 2.0
	for ok, _ := fits(hi); ok && hi <= 1e9; ok, _ = fits(hi) {
		lo, hi = hi, hi*2
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if ok, _ := fits(mid); ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	_, best := fits(lo)
	return best.TotalParams(), best, nil
}

// scaleWidth multiplies the width dimensions of spec by k (≥ 1/Dim),
// keeping depth, vocabulary, and the expert pool shape fixed.
func scaleWidth(spec ModelSpec, k float64) ModelSpec {
	s := spec
	s.Dim = max(1, int(float64(spec.Dim)*k))
	s.FFNHidden = max(1, int(float64(spec.FFNHidden)*k))
	if s.MoEEvery > 0 {
		s.MoEHidden = max(1, int(float64(spec.MoEHidden)*k))
	}
	return s
}
