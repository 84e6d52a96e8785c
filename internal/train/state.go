package train

import (
	"bagualu/internal/ckpt"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/tensor"
)

// StatefulOptimizer is implemented by optimizers whose update rule
// depends on persistent per-parameter state (momentum, Adam moments).
// StateTensors exposes that state as named pseudo-parameters so the
// checkpoint codec can persist it next to the weights; a resume that
// skips it is *correct* but not bit-exact (the moments re-warm from
// zero). SetStepCount restores the update counter that bias
// correction depends on.
type StatefulOptimizer interface {
	Optimizer
	// StateTensors returns one pseudo-parameter per state tensor of
	// each of params, named "<param>.<opt>.<slot>". State for a
	// parameter that has not been stepped yet is allocated zeroed, so
	// the returned set is complete for both save and restore.
	StateTensors(params []*nn.Param) []*nn.Param
	// StepCount returns updates applied so far.
	StepCount() int
	// SetStepCount restores the update counter.
	SetStepCount(int)
}

// stateParam wraps an optimizer state tensor as a named parameter.
// The tensor is shared, not copied: restoring into the pseudo-param
// restores the optimizer.
func stateParam(name string, t *tensor.Tensor) *nn.Param {
	return &nn.Param{Name: name, W: t}
}

// StateTensors exposes the Adam moments as "<name>.adam.m" / ".adam.v".
func (a *Adam) StateTensors(params []*nn.Param) []*nn.Param {
	out := make([]*nn.Param, 0, 2*len(params))
	for _, p := range params {
		m := a.m[p]
		if m == nil {
			m = tensor.New(p.W.Shape...)
			a.m[p] = m
			a.v[p] = tensor.New(p.W.Shape...)
		}
		out = append(out,
			stateParam(p.Name+".adam.m", m),
			stateParam(p.Name+".adam.v", a.v[p]))
	}
	return out
}

// SetStepCount restores the bias-correction counter.
func (a *Adam) SetStepCount(n int) { a.step = n }

// StateTensors exposes the LAMB moments as "<name>.lamb.m" / ".lamb.v".
func (l *LAMB) StateTensors(params []*nn.Param) []*nn.Param {
	out := make([]*nn.Param, 0, 2*len(params))
	for _, p := range params {
		m := l.m[p]
		if m == nil {
			m = tensor.New(p.W.Shape...)
			l.m[p] = m
			l.v[p] = tensor.New(p.W.Shape...)
		}
		out = append(out,
			stateParam(p.Name+".lamb.m", m),
			stateParam(p.Name+".lamb.v", l.v[p]))
	}
	return out
}

// SetStepCount restores the bias-correction counter.
func (l *LAMB) SetStepCount(n int) { l.step = n }

// MasterParams exposes the FP32 master weights as "<name>.master"
// pseudo-parameters (Mixed mode only; nil otherwise). The slices are
// shared with the precision policy, so restoring into them restores
// the masters.
func (mp *MixedPrecision) MasterParams() []*nn.Param {
	if mp.masters == nil {
		return nil
	}
	out := make([]*nn.Param, len(mp.masters))
	for i, m := range mp.masters {
		p := mp.params[i]
		out[i] = stateParam(p.Name+".master", &tensor.Tensor{Data: m, Shape: p.W.Shape})
	}
	return out
}

// ScaleState captures the dynamic loss-scale machinery: the current
// scale, progress toward the next growth, and the skip count.
func (mp *MixedPrecision) ScaleState() (scale float32, goodSteps, skipped int) {
	return mp.Scale, mp.goodSteps, mp.skipped
}

// SetScaleState restores the dynamic loss-scale machinery.
func (mp *MixedPrecision) SetScaleState(scale float32, goodSteps, skipped int) {
	mp.Scale = scale
	mp.goodSteps = goodSteps
	mp.skipped = skipped
}

// CheckpointParams returns the full set of tensors a bit-exact resume
// needs: model weights, optimizer state, and FP32 masters.
func (t *Trainer) CheckpointParams() []*nn.Param {
	out := append([]*nn.Param(nil), t.params...)
	if so, ok := t.Opt.(StatefulOptimizer); ok {
		out = append(out, so.StateTensors(t.params)...)
	}
	out = append(out, t.MP.MasterParams()...)
	return out
}

// CheckpointShard returns this rank's share of CheckpointParams when
// every rank of a replication group saves: each group names parameters
// that are bit-identical on all ranks of its communicator (the groups
// gradients are reduced over), and so are their optimizer moments and
// FP32 masters. The group's replicated tensors are laid end to end and
// rank r of R keeps the r-th of R equal flat ranges, as range-record
// views (FullShape/ShardLo) that share the live tensors' memory; the
// union over the group is every tensor exactly once. State that is
// already rank-exclusive — ZeRO moment shards — passes through. A
// group restore reads the same views back and GatherShards rebuilds the
// whole tensors from them.
func (t *Trainer) CheckpointShard(groups ...ShardGroup) []*nn.Param {
	var out []*nn.Param
	for _, g := range t.groupShards(groups) {
		out = append(out, g.views...)
	}
	return out
}

// GatherShards is CheckpointShard's inverse over the interconnect: on
// entry every rank holds valid data in its CheckpointShard views (a
// restore has just filled them in place), on return every rank of every
// group holds the group's replicated tensors whole. One AllGatherShard
// per group moves the flat concat, cut by the same mpi.ShardBounds the
// views were. Collective over each group's communicator.
func (t *Trainer) GatherShards(groups ...ShardGroup) {
	for _, g := range t.groupShards(groups) {
		if g.comm.Size() == 1 || g.n == 0 {
			continue
		}
		shard := make([]float32, 0, g.my.Len())
		for _, v := range g.slices {
			shard = append(shard, v.W.Data...)
		}
		full := g.comm.AllGatherShard(shard, g.n)
		off := 0
		for _, p := range g.repl {
			off += copy(p.W.Data, full[off:])
		}
	}
}

// groupShard is one replication group's replicated tensors laid end to
// end — weights, then optimizer state, then FP32 masters; n elements in
// all — with this rank's mpi.ShardBounds range my cut out of the concat:
// slices are range views sharing the tensors' memory, one per tensor the
// range touches. views is what the rank saves and restores: the slices,
// with state that is already rank-exclusive (it carries a FullShape and
// is not part of the concat) passed through in place.
type groupShard struct {
	comm          *mpi.Comm
	repl          []*nn.Param
	n             int
	my            mpi.Shard
	slices, views []*nn.Param
}

func (t *Trainer) groupShards(groups []ShardGroup) []groupShard {
	masters := map[*nn.Param]*nn.Param{}
	for i, m := range t.MP.MasterParams() {
		masters[t.MP.params[i]] = m
	}
	so, _ := t.Opt.(StatefulOptimizer)
	out := make([]groupShard, len(groups))
	for k, g := range groups {
		all := append([]*nn.Param(nil), g.Params...)
		if so != nil {
			all = append(all, so.StateTensors(g.Params)...)
		}
		for _, p := range g.Params {
			if m := masters[p]; m != nil {
				all = append(all, m)
			}
		}
		gs := groupShard{comm: g.Comm}
		for _, p := range all {
			if p.FullShape == nil {
				gs.repl = append(gs.repl, p)
				gs.n += len(p.W.Data)
			}
		}
		gs.my = g.Comm.MyShard(gs.n)
		off := 0
		for _, p := range all {
			if p.FullShape != nil {
				gs.views = append(gs.views, p)
				continue
			}
			lo, hi := max(gs.my.Lo-off, 0), min(gs.my.Hi-off, len(p.W.Data))
			if lo < hi {
				v := rangeView(p.Name, p.W.Data[lo:hi], p.W.Shape, lo)
				gs.slices = append(gs.slices, v)
				gs.views = append(gs.views, v)
			}
			off += len(p.W.Data)
		}
		out[k] = gs
	}
	return out
}

// CheckpointHeader snapshots the trainer's scalar state (step, loss
// scale, optimizer step count, data-order RNG position); a checkpoint
// saves it alongside each rank's tensors.
func (t *Trainer) CheckpointHeader() ckpt.Header {
	scale, good, skipped := t.MP.ScaleState()
	hdr := ckpt.Header{
		Step:         int64(t.step),
		LossScale:    scale,
		GoodSteps:    int32(good),
		SkippedSteps: int32(skipped),
		RNGState:     t.Corpus.RNGState(),
	}
	if so, ok := t.Opt.(StatefulOptimizer); ok {
		hdr.OptSteps = int64(so.StepCount())
	}
	return hdr
}

// ApplyRestored finalizes a restore: every tensor of CheckpointParams
// holds its restored value (ckpt.Restore fails unless every requested
// range was found; after a group restore GatherShards has completed the
// replicated ones), and this applies the scalar header and, in Mixed
// mode, re-derives the working weights from the restored masters.
func (t *Trainer) ApplyRestored(hdr ckpt.Header) {
	t.step = int(hdr.Step)
	t.MP.SetScaleState(hdr.LossScale, int(hdr.GoodSteps), int(hdr.SkippedSteps))
	if so, ok := t.Opt.(StatefulOptimizer); ok {
		so.SetStepCount(int(hdr.OptSteps))
	}
	t.Corpus.SetRNGState(hdr.RNGState)
	if t.MP.masters == nil {
		return
	}
	for i, p := range t.params {
		copy(p.W.Data, t.MP.masters[i])
	}
	t.MP.quantizeWeights()
}
