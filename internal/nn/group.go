package nn

import (
	"fmt"

	"bagualu/internal/tensor"
)

// ExpertGroup runs a set of FeedForward experts over the contiguous
// row blocks of one flat activation matrix with grouped GEMM calls:
// the whole group's up-projection is one batched kernel, likewise the
// activation, down-projection, and every backward GEMM. This replaces
// the per-expert Forward loop of the MoE layers — the tiled-vs-strip
// kernel decision is made on the group's total FLOPs, so cold experts
// with a handful of tokens ride the tiled kernel alongside the hot
// ones (see tensor.GroupedMatMulInto).
//
// The group caches the members' weight and gradient tensor slices so
// steady-state Forward/Backward calls allocate only the step's
// activations. Rebuild the group (NewExpertGroup)
// whenever the member set changes, e.g. after expert migration.
type ExpertGroup struct {
	Members []*FeedForward

	dim, hidden int

	upW, downW   []*tensor.Tensor // weight tensors, per member
	upB, downB   []*tensor.Tensor // bias tensors (nil entries allowed)
	upG, downG   []*tensor.Tensor // weight gradients
	upBG, downBG []*tensor.Tensor // bias gradients
}

// GroupState captures one grouped forward pass so its backward can run
// later; the MoE overlap path keeps two in flight (local + remote
// phases). Off delimits each member's row block in the flat tensors.
type GroupState struct {
	X, Up, Act *tensor.Tensor
	Off        []int
}

// Rows returns the total row count of the pass.
func (st *GroupState) Rows() int { return st.Off[len(st.Off)-1] }

// DropAct frees the activation while the pass waits for its backward;
// RebuildAct recomputes it from the pre-activation with Forward's own
// kernel, so the bits are the same.
func (st *GroupState) DropAct()    { st.Act = nil }
func (st *GroupState) RebuildAct() { st.Act = tensor.GELU(st.Up) }

// NewExpertGroup builds a grouped view over the given experts. All
// members must share in/out/hidden dimensions. An empty member list is
// allowed (a drained rank); Forward then only accepts zero rows.
func NewExpertGroup(members []*FeedForward) *ExpertGroup {
	g := &ExpertGroup{Members: members}
	for i, f := range members {
		if i == 0 {
			g.dim, g.hidden = f.Up.In, f.Up.Out
		} else if f.Up.In != g.dim || f.Up.Out != g.hidden {
			panic(fmt.Sprintf("nn: ExpertGroup member %d dims [%d,%d], want [%d,%d]",
				i, f.Up.In, f.Up.Out, g.dim, g.hidden))
		}
		g.upW = append(g.upW, f.Up.Weight.W)
		g.downW = append(g.downW, f.Down.Weight.W)
		g.upG = append(g.upG, f.Up.Weight.G)
		g.downG = append(g.downG, f.Down.Weight.G)
		if f.Up.Bias != nil {
			g.upB = append(g.upB, f.Up.Bias.W)
			g.upBG = append(g.upBG, f.Up.Bias.G)
		} else {
			g.upB = append(g.upB, nil)
			g.upBG = append(g.upBG, nil)
		}
		if f.Down.Bias != nil {
			g.downB = append(g.downB, f.Down.Bias.W)
			g.downBG = append(g.downBG, f.Down.Bias.G)
		} else {
			g.downB = append(g.downB, nil)
			g.downBG = append(g.downBG, nil)
		}
	}
	return g
}

// Forward applies every member to its row block of x (delimited by
// off, len(Members)+1 entries) and returns the flat output plus the
// backward context. The arithmetic per block matches
// FeedForward.ForwardState up to the kernel-dispatch regime: grouped
// calls decide tiled-vs-naive on the group total.
func (g *ExpertGroup) Forward(x *tensor.Tensor, off []int) (*tensor.Tensor, *GroupState) {
	rows := x.Shape[0]
	up := tensor.New(rows, g.hidden)
	tensor.GroupedMatMulInto(up, x, off, g.upW)
	g.addBias(up, off, g.upB)
	act := tensor.GELU(up)
	out := tensor.New(rows, g.dim)
	tensor.GroupedMatMulInto(out, act, off, g.downW)
	g.addBias(out, off, g.downB)
	return out, &GroupState{X: x, Up: up, Act: act, Off: off}
}

// Backward accumulates every member's parameter gradients for the
// pass captured in st — the weight products into wg when it is non-nil
// (see WeightGrads) — and returns the flat input gradient.
func (g *ExpertGroup) Backward(dout *tensor.Tensor, st *GroupState, wg *WeightGrads) *tensor.Tensor {
	rows := dout.Shape[0]
	off := st.Off
	wg.addGroupedTransA(g.downG, st.Act, dout, off)
	g.addBiasGrad(dout, off, g.downBG)
	dact := tensor.New(rows, g.hidden)
	tensor.GroupedMatMulTransBInto(dact, dout, off, g.downW)
	dup := tensor.Mul(dact, tensor.GELUGrad(st.Up))
	wg.addGroupedTransA(g.upG, st.X, dup, off)
	g.addBiasGrad(dup, off, g.upBG)
	dx := tensor.New(rows, g.dim)
	tensor.GroupedMatMulTransBInto(dx, dup, off, g.upW)
	return dx
}

// addBias adds each member's bias vector to its row block.
func (g *ExpertGroup) addBias(t *tensor.Tensor, off []int, bs []*tensor.Tensor) {
	for i, b := range bs {
		if b == nil || off[i+1] == off[i] {
			continue
		}
		tensor.AddRowVector(t.RowsView(off[i], off[i+1]), b)
	}
}

// addBiasGrad accumulates each member's bias gradient (column sums of
// its block of dout).
func (g *ExpertGroup) addBiasGrad(dout *tensor.Tensor, off []int, bgs []*tensor.Tensor) {
	for i, bg := range bgs {
		if bg == nil || off[i+1] == off[i] {
			continue
		}
		tensor.AddInPlace(bg, tensor.SumRows(dout.RowsView(off[i], off[i+1])))
	}
}
