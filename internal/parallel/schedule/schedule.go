// Package schedule is the pipeline op schedule: the contiguous layer
// partition into stage chunks and the ordered list of forward, backward
// and weight-gradient ops each stage runs per step. The runner
// (internal/parallel/pipe) executes it on the virtual clock and the
// analytic model (internal/perfmodel) walks the same list, so the two
// cannot disagree about order. It stands on nothing else of the repo.
//
// The scheduling model follows Megatron-LM: with S stages, V virtual
// stages per rank (model chunks), and M micro-batches, the model's
// layers split into S·V contiguous chunks; global chunk g lives on
// stage g mod S as the rank's local chunk g div S. 1F1B (V=1) bounds
// in-flight activations by the stage's warmup depth; the interleaved
// schedule (V>1) shrinks the pipeline bubble by a further factor of V
// at the cost of more boundary traffic.
package schedule

import "fmt"

// Chunk is one contiguous block range [Lo, Hi) of the model.
type Chunk struct{ Lo, Hi int }

// Blocks returns the chunk's block count.
func (c Chunk) Blocks() int { return c.Hi - c.Lo }

// PartitionLayers splits layers into chunks contiguous ranges whose
// sizes differ by at most one (earlier chunks take the remainder).
func PartitionLayers(layers, chunks int) ([]Chunk, error) {
	if chunks < 1 || layers < chunks {
		return nil, fmt.Errorf("schedule: cannot split %d layers into %d chunks", layers, chunks)
	}
	base, rem := layers/chunks, layers%chunks
	out := make([]Chunk, chunks)
	lo := 0
	for i := range out {
		n := base
		if i < rem {
			n++
		}
		out[i] = Chunk{Lo: lo, Hi: lo + n}
		lo += n
	}
	return out, nil
}

// OpKind distinguishes schedule operations.
type OpKind uint8

const (
	// Fwd runs a chunk's forward pass for one micro-batch.
	Fwd OpKind = iota
	// Bwd restores the chunk's stashed pass and runs its backward. On
	// a chunk with an upstream boundary it is the input half only (B):
	// the input gradient goes upstream before any weight-gradient GEMM.
	Bwd
	// WGrad runs the weight-gradient GEMMs its chunk's Bwd deferred (W).
	WGrad
)

// Op is one schedule entry: run Kind on local chunk Chunk (0..V-1)
// for micro-batch MB.
type Op struct {
	Kind  OpKind
	Chunk int
	MB    int
}

func (o Op) String() string {
	return fmt.Sprintf("%c(c%d,m%d)", "FBW"[o.Kind], o.Chunk, o.MB)
}

// schedule1F1B returns the classic one-forward-one-backward schedule
// for this stage: min(micro, stages-1-stage) warmup forwards, a
// steady state alternating one forward with one backward, and a
// cooldown draining the remaining backwards. In-flight activations
// are bounded by the warmup depth, not by micro.
func schedule1F1B(stage, stages, micro int) []Op {
	if stage < 0 || stage >= stages || micro < 1 {
		panic(fmt.Sprintf("schedule: bad 1F1B shape stage=%d/%d micro=%d", stage, stages, micro))
	}
	warmup := stages - 1 - stage
	if warmup > micro {
		warmup = micro
	}
	ops := make([]Op, 0, 2*micro)
	for m := 0; m < warmup; m++ {
		ops = append(ops, Op{Fwd, 0, m})
	}
	fwd, bwd := warmup, 0
	for fwd < micro {
		ops = append(ops, Op{Fwd, 0, fwd})
		fwd++
		ops = append(ops, Op{Bwd, 0, bwd})
		bwd++
	}
	for bwd < micro {
		ops = append(ops, Op{Bwd, 0, bwd})
		bwd++
	}
	return ops
}

// scheduleInterleaved returns Megatron's interleaved virtual-stage
// schedule: each stage owns virtual chunks (global chunk v·stages +
// stage for local v), micro-batches advance through chunks in groups
// of stages, and the warmup depth (stages-stage-1)·2 + (virtual-1)·
// stages keeps every dependency satisfied while shrinking the bubble
// by the virtual factor. Requires micro % stages == 0 (the groups-of-
// stages traversal is what the schedule's validity rests on).
func scheduleInterleaved(stage, stages, virtual, micro int) []Op {
	if stage < 0 || stage >= stages || virtual < 1 || micro < 1 {
		panic(fmt.Sprintf("schedule: bad interleaved shape stage=%d/%d v=%d micro=%d", stage, stages, virtual, micro))
	}
	if micro%stages != 0 {
		panic(fmt.Sprintf("schedule: interleaved schedule needs micro %d divisible by stages %d", micro, stages))
	}
	total := micro * virtual
	warmup := (stages-stage-1)*2 + (virtual-1)*stages
	if warmup > total {
		warmup = total
	}
	fwdOp := func(k int) Op {
		group := k / stages
		return Op{Fwd, group % virtual, (group/virtual)*stages + k%stages}
	}
	bwdOp := func(k int) Op {
		group := k / stages
		return Op{Bwd, virtual - 1 - group%virtual, (group/virtual)*stages + k%stages}
	}
	ops := make([]Op, 0, 2*total)
	for k := 0; k < warmup; k++ {
		ops = append(ops, fwdOp(k))
	}
	for k := warmup; k < total; k++ {
		ops = append(ops, fwdOp(k))
		ops = append(ops, bwdOp(k-warmup))
	}
	for k := total - warmup; k < total; k++ {
		ops = append(ops, bwdOp(k))
	}
	return ops
}

// Schedule picks the schedule for the stage — 1F1B when virtual == 1,
// interleaved otherwise — and splits the backward of every chunk with
// an upstream boundary (global chunk > 0): W(c,m) runs right after
// B(c,m), once the input gradient is on its way upstream, so the
// upstream stage no longer waits for this one's weight GEMMs. Global
// chunk 0 sends nothing upstream and keeps its backward fused, as does
// every one-stage schedule.
func Schedule(stage, stages, virtual, micro int) []Op {
	var ops []Op
	if virtual <= 1 {
		ops = schedule1F1B(stage, stages, micro)
	} else {
		ops = scheduleInterleaved(stage, stages, virtual, micro)
	}
	out := make([]Op, 0, 3*len(ops)/2)
	for _, op := range ops {
		out = append(out, op)
		if op.Kind == Bwd && Splits(op.Chunk*stages+stage) {
			out = append(out, Op{WGrad, op.Chunk, op.MB})
		}
	}
	return out
}

// Splits reports whether global chunk g's backward runs as B then W:
// every chunk with an upstream boundary.
func Splits(g int) bool { return g > 0 }
