package train

import (
	"fmt"
	"math"

	"bagualu/internal/metrics"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/tensor"
)

// ShardGroup names one set of parameters whose gradients are reduced
// over one communicator: the parallel engine binds dense params over
// the world communicator and expert params over the data-parallel
// communicator, so expert gradients ride the same sharded path.
type ShardGroup struct {
	Comm   *mpi.Comm
	Params []*nn.Param
}

// ShardedAdam is a ZeRO-1 style Adam: the first and second moments of
// each ShardGroup are partitioned by flat-offset ranges across the
// group's ranks (mpi.ShardBounds), and gradient sync becomes
// reduce-scatter → local shard update → all-gather of updated
// parameters, moving the same bytes as a ring all-reduce while each
// rank stores only 1/P of the optimizer state.
//
// The trajectory is bit-exact versus the unsharded Adam: the sharded
// reduce-scatter produces bitwise the all-reduce values on the owned
// range, and the per-element update arithmetic is identical, so the
// gathered parameters match the unsharded run's to the last bit.
//
// ShardedAdam deliberately does not implement moe.OptStateCarrier:
// expert migration would need to ship moment ranges scattered across
// the group, so the engine rejects rebalance/mitigate under ZeRO and
// fault recovery uses rollback (cross-layout checkpoint restore
// re-partitions the shards).
type ShardedAdam struct {
	Beta1, Beta2 float32
	Eps          float32
	WeightDecay  float32

	// UpdateRate, when positive, charges the local shard update to the
	// group communicator's virtual clock at this rate (elements per
	// second) — under ZeRO each rank updates n/P elements instead of n,
	// and the saved optimizer compute should show in simulated time.
	// The charge books metrics.PhaseOptimizerShard on the rank's phase
	// record, the parameter all-gather metrics.PhaseParamGather.
	UpdateRate float64

	step   int
	groups []*shardGroup
}

type shardGroup struct {
	comm   *mpi.Comm
	params []*nn.Param
	offs   []int // flat offset of each param in the group's concat
	n      int   // total flat elements
	my     mpi.Shard
	m, v   []float32 // owned moment shards
	grad   []float32 // owned shard of this step's reduced gradients
	synced bool

	// upd is the updated owned shard (pooled) and full the gathered
	// parameters, between Step's update and its all-gather.
	upd, full []float32
}

// NewShardedAdam constructs the sharded optimizer with the
// conventional Adam defaults (0.9, 0.999, 1e-8). Bind must be called
// before the first step.
func NewShardedAdam(weightDecay float32) *ShardedAdam {
	return &ShardedAdam{Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: weightDecay}
}

// Bind (re)partitions the optimizer over the given groups: each
// group's flat layout is the concatenation of its params in order, and
// this rank owns its communicator's ShardBounds range. Moments are
// allocated zeroed; a checkpoint restore fills them through the
// StateTensors views, which is how Reform/shrink re-partitions shards
// across layouts.
func (z *ShardedAdam) Bind(groups ...ShardGroup) {
	z.groups = z.groups[:0]
	for _, sg := range groups {
		g := &shardGroup{comm: sg.Comm, params: sg.Params}
		g.offs = make([]int, len(sg.Params))
		for i, p := range sg.Params {
			g.offs[i] = g.n
			g.n += len(p.W.Data)
		}
		g.my = sg.Comm.MyShard(g.n)
		g.m = make([]float32, g.my.Len())
		g.v = make([]float32, g.my.Len())
		g.grad = make([]float32, g.my.Len())
		z.groups = append(z.groups, g)
	}
}

// StateBytes returns the bytes of optimizer state (moment shards)
// this rank holds — the quantity ZeRO divides by the group size.
func (z *ShardedAdam) StateBytes() int64 {
	var b int64
	for _, g := range z.groups {
		b += int64(len(g.m)+len(g.v)) * 4
	}
	return b
}

// StartSync issues group i's reduce-scatter on the wire w
// (mpi.Comm.ReduceScatterShard) as a deferred request and returns it:
// its body runs when it is joined, and afterwards this rank holds its
// reduced, scale-multiplied shard (scale is the data-parallel averaging
// factor). It replaces the full-tensor all-reduce of the unsharded path;
// the parameters' G tensors are left untouched (they hold local,
// unreduced gradients afterwards). The parallel engine issues each
// gradient bucket's group as the backward finishes it — an MoE block's
// expert group from inside the layer's backward.
func (z *ShardedAdam) StartSync(i int, scale float32, w mpi.GradWire) *mpi.Request {
	if z.groups == nil {
		panic("train: ShardedAdam.StartSync before Bind")
	}
	g := z.groups[i]
	return g.comm.Defer(func() { g.reduceScatter(scale, w) })
}

// reduceScatter is the body of group g's StartSync.
func (g *shardGroup) reduceScatter(scale float32, w mpi.GradWire) {
	flat := tensor.GetSlice(g.n)
	for i, p := range g.params {
		copy(flat[g.offs[i]:], p.G.Data)
	}
	if g.comm.Size() > 1 {
		shard, s := g.comm.ReduceScatterShard(flat[:g.n], w)
		if s != g.my {
			panic(fmt.Sprintf("train: shard %+v != bound %+v", s, g.my))
		}
		copy(g.grad, shard)
	} else {
		copy(g.grad, flat[g.my.Lo:g.my.Hi])
	}
	tensor.PutSlice(flat)
	if scale != 1 {
		for i := range g.grad {
			g.grad[i] *= scale
		}
	}
	g.synced = true
}

// NormSq returns the gradient-norm² of the groups bound over c,
// combined over c in one exchange: each rank contributes the float64
// sum of squares of its owned shard of each group, the partials are
// summed per group in rank order, and the group sums in bind order —
// the canonical order ShardedNormSq reproduces locally in the unsharded
// path, group by group, keeping clip decisions mode-independent and
// bit-exact.
func (z *ShardedAdam) NormSq(c *mpi.Comm) float64 {
	var local []float64
	for _, g := range z.groups {
		if g.comm != c {
			continue
		}
		var sq float64
		for _, v := range g.grad {
			sq += float64(v) * float64(v)
		}
		local = append(local, sq)
	}
	var sum float64
	for _, s := range CombineF64Sums(c, local...) {
		sum += s
	}
	return sum
}

// ScaleGradShards multiplies every reduced gradient shard by s (the
// clip factor).
func (z *ShardedAdam) ScaleGradShards(s float32) {
	for _, g := range z.groups {
		for i := range g.grad {
			g.grad[i] *= s
		}
	}
}

// Step applies one Adam update to the owned shard of every group and
// all-gathers the updated parameters: each group's all-gather starts as
// a request once its shard is updated, so it travels while the next
// group updates, and the wait for the last of them is booked as
// metrics.PhaseParamGather. The params argument is ignored
// (the bound groups partition the same underlying parameters); under
// Mixed precision the policy has swapped FP32 masters into p.W, so the
// shard update reads and writes master values transparently.
func (z *ShardedAdam) Step(_ []*nn.Param, lr float32) {
	z.step++
	c := adamCoeffs(z.Beta1, z.Beta2, z.Eps, z.WeightDecay, lr, z.step)
	reqs := make([]*mpi.Request, 0, len(z.groups))
	for _, g := range z.groups {
		if !g.synced {
			panic("train: ShardedAdam.Step before StartSync")
		}
		g.synced = false
		upd := tensor.GetSlice(g.my.Len())
		for j, p := range g.params {
			off := g.offs[j]
			oLo := max(g.my.Lo, off)
			oHi := min(g.my.Hi, off+len(p.W.Data))
			if oLo >= oHi {
				continue
			}
			lo, hi := oLo-g.my.Lo, oHi-g.my.Lo
			tensor.AdamUpdate(upd[lo:hi], p.W.Data[oLo-off:oHi-off], g.grad[lo:hi], g.m[lo:hi], g.v[lo:hi], c)
		}
		if z.UpdateRate > 0 {
			g.comm.Compute(float64(g.my.Len())/z.UpdateRate, metrics.PhaseOptimizerShard)
		}
		g.upd = upd
		if g.comm.Size() > 1 {
			// The shard's all-gather leaves while the next group updates.
			reqs = append(reqs, g.comm.Start(func() { g.full = g.comm.AllGatherShard(g.upd[:g.my.Len()], g.n) }))
		}
	}
	if len(reqs) > 0 {
		c := z.groups[0].comm
		t0 := c.Now()
		for _, r := range reqs {
			r.Wait()
		}
		c.Phases().Observe(metrics.PhaseParamGather, c.Now()-t0)
	}
	for _, g := range z.groups {
		full := g.upd[:g.my.Len()]
		if g.full != nil {
			full = g.full
		}
		for j, p := range g.params {
			copy(p.W.Data, full[g.offs[j]:g.offs[j]+len(p.W.Data)])
		}
		tensor.PutSlice(g.upd)
		g.upd, g.full = nil, nil
	}
}

// StepCount returns updates applied so far.
func (z *ShardedAdam) StepCount() int { return z.step }

// SetStepCount restores the bias-correction counter.
func (z *ShardedAdam) SetStepCount(n int) { z.step = n }

// StateTensors exposes this rank's moment shards as range-record
// pseudo-parameters under the same names the unsharded Adam uses
// ("<param>.adam.m" / ".adam.v"), each carrying the full logical shape
// and its flat offset. Checkpoints therefore restore across layouts:
// shard files union into full tensors (or differently-cut shards) via
// coverage, and an unsharded checkpoint restores into shard views by
// overlap. Only moments of the given params are returned.
func (z *ShardedAdam) StateTensors(params []*nn.Param) []*nn.Param {
	want := make(map[*nn.Param]bool, len(params))
	for _, p := range params {
		want[p] = true
	}
	var out []*nn.Param
	for _, g := range z.groups {
		for j, p := range g.params {
			if !want[p] {
				continue
			}
			off := g.offs[j]
			oLo := max(g.my.Lo, off)
			oHi := min(g.my.Hi, off+len(p.W.Data))
			if oLo >= oHi {
				continue
			}
			out = append(out,
				rangeView(p.Name+".adam.m", g.m[oLo-g.my.Lo:oHi-g.my.Lo], p.W.Shape, oLo-off),
				rangeView(p.Name+".adam.v", g.v[oLo-g.my.Lo:oHi-g.my.Lo], p.W.Shape, oLo-off))
		}
	}
	return out
}

// rangeView wraps data as the range record [lo, lo+len(data)) of the
// logical tensor name of shape full — the pseudo-parameter the
// checkpoint codec writes as a partial record and restores by overlap.
func rangeView(name string, data []float32, full []int, lo int) *nn.Param {
	return &nn.Param{
		Name:      name,
		W:         &tensor.Tensor{Data: data, Shape: []int{len(data)}},
		FullShape: append([]int(nil), full...),
		ShardLo:   lo,
	}
}

// CombineF64Sums sums each of k float64 values per rank of c, in rank
// order, with full float64 fidelity: the values travel as raw bit
// patterns through AllGatherInts, so every rank computes the
// bitwise-identical totals, which depend on nothing but the per-rank
// values and their order. Both gradient-sync modes combine their norm
// partials with it, which is what keeps clip decisions — and therefore
// whole trajectories — identical between the sharded and unsharded
// optimizers.
func CombineF64Sums(c *mpi.Comm, xs ...float64) []float64 {
	if c.Size() == 1 {
		return xs
	}
	bits := make([]int, len(xs))
	for i, x := range xs {
		bits[i] = int(math.Float64bits(x))
	}
	all := c.AllGatherInts(bits)
	sums := make([]float64, len(xs))
	for r := 0; r < c.Size(); r++ {
		for i := range sums {
			sums[i] += math.Float64frombits(uint64(all[r*len(xs)+i]))
		}
	}
	return sums
}

// ShardedNormSq computes the canonical distributed gradient-norm² of
// params over c's shard layout from fully reduced gradients held
// locally: float64 partial sums per shard range, added in rank order.
// It returns bitwise the value ShardedAdam.NormSq computes by
// exchanging partials, so the unsharded engine path reports (and
// clips on) identical norms.
func ShardedNormSq(c *mpi.Comm, params []*nn.Param) float64 {
	n := 0
	for _, p := range params {
		n += len(p.W.Data)
	}
	shards := c.ShardBounds(n)
	var sum float64
	for _, s := range shards {
		sum += flatNormSqRange(params, s)
	}
	return sum
}

// flatNormSqRange sums g² in float64 over one flat range of the
// params' concatenated gradients.
func flatNormSqRange(params []*nn.Param, s mpi.Shard) float64 {
	var sum float64
	off := 0
	for _, p := range params {
		g := p.G.Data
		oLo := max(s.Lo, off)
		oHi := min(s.Hi, off+len(g))
		for i := oLo; i < oHi; i++ {
			v := float64(g[i-off])
			sum += v * v
		}
		off += len(g)
	}
	return sum
}
