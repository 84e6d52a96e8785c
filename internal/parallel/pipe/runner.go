// Package pipe implements deterministic pipeline-parallel execution
// of nn.GPT on the virtual clock: a runner that executes a stage's
// op list (internal/parallel/schedule) with pooled boundary-activation
// exchange over the reliable mpi wire.
//
// Each (chunk, micro-batch) forward moves its layers' single-slot
// caches out into a stash (nn.GPT.Stash) and its backward restores
// them, so in-flight micro-batches never replay their forward; a
// forward whose backward is the next op leaves them in the layers. Only
// the blocks the model's recompute policy marks keep just their input
// and replay. With one stage the schedule is F B F B …, plain gradient
// accumulation: train.Trainer runs every step through a Runner, the
// one-stage runner it builds or the stage's the parallel engine
// installs.
package pipe

import (
	"fmt"

	"bagualu/internal/metrics"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/parallel/schedule"
	"bagualu/internal/tensor"
)

// MicroBatch is one micro-batch's tokens: ids feed the first stage's
// embedding, targets the last stage's loss. Every rank of a pipeline
// column draws the identical sequence (the engine seeds the corpus by
// within-stage index), so no token traffic crosses stage boundaries.
type MicroBatch struct {
	IDs     []int
	Targets []int
}

// AuxLossLayer is implemented by MoE layers: they contribute an
// auxiliary load-balancing loss, whose gradient they inject themselves
// scaled by SetGradScale, and report their routing.
type AuxLossLayer interface {
	AuxLoss() float32
	LastRouting() *moe.Routing
	SetGradScale(float32)
}

// Runner executes a pipeline schedule for one rank. It owns the
// per-(chunk, micro-batch) stash of in-flight passes, the boundary
// sends in flight, and the last stage's loss head. It is the one
// forward/backward driver: a trainer builds the one-stage runner, and
// the parallel engine installs its stage's in its place; Step is called
// once per optimizer step.
type Runner struct {
	// Grid shape: S pipeline stages, V virtual chunks per stage, M
	// micro-batches per step (M % S == 0 when V > 1).
	Stages, Virtual, Micro int
	Stage                  int

	// Comm is the pipeline communicator: Stages ranks, comm rank ==
	// stage, shared by all boundary traffic of this rank's column. Chunk
	// compute is charged to its clock. A one-stage runner pricing no
	// compute needs none.
	Comm *mpi.Comm

	// Model is the full GPT (every rank builds it identically); Part
	// holds all Stages·Virtual chunk ranges in global order. The
	// runner only ever touches blocks in this stage's chunks.
	Model *nn.GPT
	Part  []schedule.Chunk

	// Rows is batch·seq — the activation row count per micro-batch.
	Rows int

	// Flops prices one forward pass of a unit of the model (see
	// nn.GPT.Units) in FLOPs, and the weight-gradient share of its
	// backward, which costs twice the forward; Rate (FLOP/s) turns FLOPs
	// into virtual seconds. A chunk's forward charges its units' sum (a
	// replay, the share of the chunk's blocks the recompute policy
	// marks); a fused backward charges each unit as it finishes, and a
	// split one the chunk's weight-gradient sum in W and the rest in B.
	// The engine prices dense FLOPs here; self-charging MoE layers price
	// their own GEMMs. A nil Flops or a zero Rate charges nothing. The
	// charges book metrics.PhaseCompute on the rank's record, replays
	// metrics.PhaseRecompute, and the time this stage spends blocked on
	// boundary receives metrics.PhaseBubble.
	Flops func(u nn.Unit) (fwd, wgrad float64)
	Rate  float64

	// Finished, when non-nil, is told once per step of every unit of the
	// stage's chunks, when the step's last backward through the unit has
	// made its gradients final: as the unit finishes in a fused backward
	// (a block's experts from inside its MoE layer's backward), after the
	// chunk's last W in a split one. The engine starts each gradient
	// bucket's syncs from it.
	Finished func(u int)

	loss nn.SoftmaxCrossEntropy

	// passes[v][mb] is the pass of (chunk v, micro-batch mb) between its
	// forward and its backward — its W, when the backward is split —
	// nil otherwise; spare holds passes a backward emptied. dlogits[mb]
	// is the last stage's logits gradient, computed at forward time, and
	// kept[mb] the copy it lives in while other passes run; sends the
	// boundary sends of this step.
	passes  [][]*nn.Pass
	spare   []*nn.Pass
	dlogits []*tensor.Tensor
	kept    []*tensor.Tensor
	sends   []*mpi.Request
	sched   []schedule.Op

	// units[v] is chunk v's unit table. left[v] counts chunk v's
	// backwards (W when split) still to run this step; final marks the
	// fused backward that leaves none. unit is a fused backward's report
	// of each unit it finishes, which must be unit next of the table cur.
	units []unitTable
	left  []int
	final bool
	cur   *unitTable
	next  int
	unit  func(u int)

	// The step's micro-averaged loss and aux loss and its overflow
	// count, summed as its forwards run.
	sumLoss, sumAux float32
	sumOverflow     int
}

// unitTable is one chunk's units in the order its backward finishes
// them, with each unit's forward FLOPs and the chunk's forward and
// weight-gradient sums. Every price is an integer-valued float64, so
// the sums are exact.
type unitTable struct {
	units      []nn.Unit
	flops      []float64
	fwd, wgrad float64
}

// boundary tags: direction bit + global boundary index + micro-batch.
const tagMBBits = 16

func bTag(dir, g, mb int) int {
	if mb >= 1<<tagMBBits {
		panic(fmt.Sprintf("pipe: micro-batch %d overflows the tag space", mb))
	}
	return ((g*2+dir)<<tagMBBits | mb) + 1
}

// chunks this stage owns, as global indices: v*Stages + Stage.
func (r *Runner) global(v int) int { return v*r.Stages + r.Stage }

// lastGlobal is the pipeline's final chunk (owns head + loss).
func (r *Runner) lastGlobal() int { return r.Stages*r.Virtual - 1 }

func (r *Runner) init() {
	if r.sched != nil {
		return
	}
	if len(r.Part) != r.Stages*r.Virtual {
		panic(fmt.Sprintf("pipe: %d chunks for %d stages x %d virtual", len(r.Part), r.Stages, r.Virtual))
	}
	r.passes = make([][]*nn.Pass, r.Virtual)
	for v := range r.passes {
		r.passes[v] = make([]*nn.Pass, r.Micro)
	}
	r.dlogits = make([]*tensor.Tensor, r.Micro)
	r.kept = make([]*tensor.Tensor, r.Micro)
	r.left = make([]int, r.Virtual)
	r.units = make([]unitTable, r.Virtual)
	for v := range r.units {
		t := &r.units[v]
		c := r.Part[r.global(v)]
		t.units = r.Model.Units(c.Lo, c.Hi)
		t.flops = make([]float64, len(t.units))
		for i, u := range t.units {
			if r.Flops != nil {
				fwd, wgrad := r.Flops(u)
				t.flops[i], t.fwd, t.wgrad = fwd, t.fwd+fwd, t.wgrad+wgrad
			}
		}
	}
	r.sched = schedule.Schedule(r.Stage, r.Stages, r.Virtual, r.Micro)
	r.unit = r.unitDone
}

// Stashed returns how many (chunk, micro-batch) passes are between
// their forward and their backward, or still waiting for their W:
// zero outside Step.
func (r *Runner) Stashed() int {
	n := 0
	for _, row := range r.passes {
		for _, p := range row {
			if p != nil {
				n++
			}
		}
	}
	return n
}

// recvInto blocks for a boundary tensor and charges the wait to the
// bubble phase.
func (r *Runner) recvInto(dst []float32, src, tag int) {
	t0 := r.Comm.Now()
	r.Comm.RecvPooledInto(dst, src, tag)
	r.Comm.Phases().Observe(metrics.PhaseBubble, r.Comm.Now()-t0)
}

// send starts a boundary send as a request: its bytes leave on the
// rank's ports while the rank computes on, and Step joins it.
func (r *Runner) send(dst, tag int, data []float32) {
	r.sends = append(r.sends, r.Comm.Start(func() { r.Comm.SendPooled(dst, tag, data) }))
}

// seconds prices flops at Rate.
func (r *Runner) seconds(flops float64) float64 {
	if r.Rate <= 0 {
		return 0
	}
	return flops / r.Rate
}

// charge advances the virtual clock by s seconds of chunk compute,
// booked under phase.
func (r *Runner) charge(s float64, phase string) {
	if s > 0 {
		r.Comm.Compute(s, phase)
	}
}

// runForward executes F(v, mb): obtain the chunk input (embed, or
// recv from the previous chunk's stage), run the blocks, either hand
// the output to the loss (last chunk) or send it downstream. Unless
// hot — the pass's backward is the next op, as in plain gradient
// accumulation — other passes run in between, so the layers' caches
// and the logits gradient are stashed. Returns the micro-batch's loss
// contribution (last chunk only).
func (r *Runner) runForward(v, mb int, batches []MicroBatch, lossScale float32, hot bool) (loss, aux float32, overflow int) {
	g := r.global(v)
	c := r.Part[g]
	var x *tensor.Tensor
	if g == 0 {
		x = r.Model.EmbedForward(batches[mb].IDs)
	} else {
		x = tensor.New(r.Rows, r.Model.Cfg.Dim)
		r.recvInto(x.Data, (g-1)%r.Stages, bTag(0, g, mb))
	}
	var p *nn.Pass
	if n := len(r.spare); n > 0 {
		p, r.spare = r.spare[n-1], r.spare[:n-1]
	} else {
		p = new(nn.Pass)
	}
	out := r.Model.ForwardBlocks(p, c.Lo, c.Hi, x)
	r.charge(r.seconds(r.units[v].fwd), metrics.PhaseCompute)
	if g == r.lastGlobal() {
		logits := r.Model.HeadForward(out)
		loss = r.loss.Forward(logits, batches[mb].Targets)
		// The loss layer is single-slot: compute the scaled logits
		// gradient now, before another micro-batch's forward clobbers
		// it, and keep it for this micro-batch's backward.
		d := r.loss.Backward()
		if lossScale != 1 {
			tensor.ScaleInPlace(d, lossScale)
		}
		if !hot {
			if r.kept[mb] == nil {
				r.kept[mb] = tensor.New(r.Rows, r.Model.Cfg.Vocab)
			}
			r.kept[mb].CopyFrom(d)
			d = r.kept[mb]
		}
		r.dlogits[mb] = d
	} else {
		r.send((g+1)%r.Stages, bTag(0, g+1, mb), out.Data)
	}
	aux, overflow = r.aux(c)
	if !hot {
		r.Model.Stash(p)
	}
	r.passes[v][mb] = p
	return loss, aux, overflow
}

// aux sums the auxiliary loss and overflow count of chunk c's MoE
// layers, read after its forward before another micro-batch overwrites
// the gates.
func (r *Runner) aux(c schedule.Chunk) (aux float32, overflow int) {
	for i := c.Lo; i < c.Hi; i++ {
		if l, ok := r.Model.Blocks[i].FFN.(AuxLossLayer); ok {
			aux += l.AuxLoss()
			if rt := l.LastRouting(); rt != nil {
				overflow += rt.Overflow
			}
		}
	}
	return aux, overflow
}

// runBackward executes B(v, mb): the chunk's pass comes back (a block
// the recompute policy marks replays its forward — the replay priced by
// the marked share of the chunk), the blocks run backward, and the
// input gradient goes upstream (or into the embeddings). A split
// backward records its weight-gradient GEMMs in the pass, which stays
// until W runs them.
func (r *Runner) runBackward(v, mb int) {
	g := r.global(v)
	split := schedule.Splits(g)
	p := r.passes[v][mb]
	fwd := r.seconds(r.units[v].fwd)
	if n := p.Replays(); n > 0 {
		r.charge(fwd*(float64(n)/float64(r.Part[g].Blocks())), metrics.PhaseRecompute)
	}
	var d *tensor.Tensor
	if g == r.lastGlobal() {
		d, r.dlogits[mb] = r.dlogits[mb], nil
	} else {
		// A tensor of its own: a split backward's W reads it after
		// later receives.
		d = tensor.New(r.Rows, r.Model.Cfg.Dim)
		r.recvInto(d.Data, (g+1)%r.Stages, bTag(1, g, mb))
	}
	if !split {
		r.passes[v][mb] = nil
		r.left[v]--
		r.final = r.left[v] == 0 && r.Finished != nil
		r.cur, r.next = &r.units[v], 0
		r.Model.BackwardPass(p, d, r.unit)
		if r.next != len(r.cur.units) {
			panic(fmt.Sprintf("pipe: chunk %d's backward finished %d of its %d units", g, r.next, len(r.cur.units)))
		}
		r.spare = append(r.spare, p)
		return
	}
	dx := r.Model.BackwardInput(p, d)
	r.charge(fwd*2-r.seconds(r.units[v].wgrad), metrics.PhaseCompute)
	r.send((g-1)%r.Stages, bTag(1, g-1, mb), dx.Data)
}

// runWeights executes W(v, mb): the weight-gradient GEMMs the chunk's
// split backward recorded, in recording order.
func (r *Runner) runWeights(v, mb int) {
	p := r.passes[v][mb]
	r.passes[v][mb] = nil
	r.Model.BackwardWeights(p)
	r.spare = append(r.spare, p)
	r.charge(r.seconds(r.units[v].wgrad), metrics.PhaseCompute)
	if r.left[v]--; r.left[v] == 0 && r.Finished != nil {
		for _, u := range r.units[v].units {
			r.Finished(u.ID)
		}
	}
}

// unitDone is a fused backward's report of a finished unit, the next of
// its chunk's table: the unit's backward charge, then, on the step's
// last backward through the chunk, Finished.
func (r *Runner) unitDone(id int) {
	t, i := r.cur, r.next
	if i == len(t.units) || t.units[i].ID != id {
		panic(fmt.Sprintf("pipe: the backward finished unit %d out of its chunk's table order", id))
	}
	r.next++
	r.charge(2*r.seconds(t.flops[i]), metrics.PhaseCompute)
	if r.final {
		r.Finished(id)
	}
}

// Step executes one full pipeline schedule over the micro-batches and
// returns the micro-averaged loss, auxiliary loss, and overflow count
// (loss is nonzero only on the stage owning the final chunk; the
// engine combines across the world). lossScale — the loss scale times
// the 1/M accumulation weight — multiplies the logits gradient of every
// micro-batch and the aux-loss gradient the MoE layers of this stage's
// chunks inject. The step's boundary sends are joined before it
// returns.
func (r *Runner) Step(batches []MicroBatch, lossScale float32) (loss, aux float32, overflow int) {
	r.init()
	if len(batches) != r.Micro {
		panic(fmt.Sprintf("pipe: %d micro-batches for schedule of %d", len(batches), r.Micro))
	}
	for v := 0; v < r.Virtual; v++ {
		c := r.Part[r.global(v)]
		for i := c.Lo; i < c.Hi; i++ {
			if l, ok := r.Model.Blocks[i].FFN.(AuxLossLayer); ok {
				l.SetGradScale(lossScale)
			}
		}
	}
	for v := range r.left {
		r.left[v] = r.Micro
	}
	r.sumLoss, r.sumAux, r.sumOverflow = 0, 0, 0
	// Averaged per micro-batch, so the reported loss has the one-stage
	// run's bits at any depth.
	m := float32(r.Micro)
	for i, op := range r.sched {
		switch op.Kind {
		case schedule.Fwd:
			hot := i+1 < len(r.sched) && r.sched[i+1] == schedule.Op{Kind: schedule.Bwd, Chunk: op.Chunk, MB: op.MB}
			l, a, o := r.runForward(op.Chunk, op.MB, batches, lossScale, hot)
			r.sumLoss += l / m
			r.sumAux += a / m
			r.sumOverflow += o
		case schedule.Bwd:
			r.runBackward(op.Chunk, op.MB)
		case schedule.WGrad:
			r.runWeights(op.Chunk, op.MB)
		}
	}
	for _, s := range r.sends {
		s.Wait()
	}
	clear(r.sends)
	r.sends = r.sends[:0]
	return r.Sums()
}

// Sums returns the step's micro-averaged loss and auxiliary loss and its
// overflow count over the forwards run so far: Step's result once the
// stage's last forward has run, which every Finished call follows (a
// unit's gradients are final only after the last micro-batch's
// backward, which waits on every forward of that micro-batch).
func (r *Runner) Sums() (loss, aux float32, overflow int) {
	return r.sumLoss, r.sumAux, r.sumOverflow
}
