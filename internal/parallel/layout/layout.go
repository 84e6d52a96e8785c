// Package layout is the folded [pp, dp, ep] process grid: one value
// type, Grid, that states the grid's shape and the fold order every
// consumer reads. The engine splits its communicators by Grid's colors,
// the analytic cost model (internal/perfmodel) prices each group at the
// size and stride Grid's table gives it, and the autotuner searches
// grids by value.
//
// The fold order is the table in Grid.Group: ep is contiguous, dp
// strides by EP, and pp is outermost. A stage is then a contiguous
// block of DP·EP ranks — the dense replication group — and all-to-all
// partners sit as low in the network hierarchy as the machine allows.
// At depth 1 the grid is BaGuaLu's MoDa grid: contiguous expert-parallel
// groups, strided data-parallel groups.
package layout

import "fmt"

// Axis names of Grid's fold table. The group along an axis is the set
// of ranks whose coordinates differ along that axis only.
const (
	AxisExpert = "ep"    // all-to-all partners: an expert pool's shards
	AxisData   = "dp"    // an expert shard's replicas
	AxisStage  = "stage" // a stage's dp·ep ranks: the dense replication group
	AxisPipe   = "pp"    // the pipeline column: one rank per stage
)

// Grid is the process-grid shape.
type Grid struct {
	DataParallel   int
	ExpertParallel int

	// Pipeline is the pipeline-parallel depth (stage count). 0 or 1 is
	// depth 1: one stage, the flat DP×EP MoDa grid.
	Pipeline int

	// Virtual is the number of virtual stages (model chunks) per
	// pipeline stage. 0 or 1 selects 1F1B; above 1 the interleaved
	// schedule, which requires the micro-batch count to be divisible by
	// Pipeline.
	Virtual int
}

// PP returns the effective pipeline depth (>= 1).
func (g Grid) PP() int { return max(g.Pipeline, 1) }

// VPP returns the effective virtual-stage count per stage (>= 1).
func (g Grid) VPP() int { return max(g.Virtual, 1) }

// Size returns the total rank count.
func (g Grid) Size() int { return g.DataParallel * g.ExpertParallel * g.PP() }

// String is the grid's label: dp2xep4, dp2xep1xpp4v2.
func (g Grid) String() string {
	s := fmt.Sprintf("dp%dxep%d", g.DataParallel, g.ExpertParallel)
	if g.PP() > 1 {
		s += fmt.Sprintf("xpp%d", g.PP())
		if g.VPP() > 1 {
			s += fmt.Sprintf("v%d", g.VPP())
		}
	}
	return s
}

// Group returns the size of the group along axis and the rank stride
// between its consecutive members. This is the fold order: ep
// contiguous, dp strided by EP, the stage a contiguous dp·ep block, the
// pipeline column strided by the stage size.
func (g Grid) Group(axis string) (size, stride int) {
	dp, ep := g.DataParallel, g.ExpertParallel
	switch axis {
	case AxisExpert:
		return ep, 1
	case AxisData:
		return dp, ep
	case AxisStage:
		return dp * ep, 1
	case AxisPipe:
		return g.PP(), dp * ep
	}
	panic("layout: no axis " + axis)
}

// Coord returns rank's position in its group along axis: its stage for
// AxisPipe, its index inside the stage for AxisStage.
func (g Grid) Coord(axis string, rank int) int {
	size, stride := g.Group(axis)
	return rank / stride % size
}

// Color returns the lowest rank of rank's group along axis. Ranks share
// a color exactly when they share that group, so splitting a
// communicator whose ranks are the grid's by it yields one communicator
// per group.
func (g Grid) Color(axis string, rank int) int {
	_, stride := g.Group(axis)
	return rank - g.Coord(axis, rank)*stride
}

// Validate checks the grid's shape on its own.
func (g Grid) Validate() error {
	switch {
	case g.DataParallel < 1:
		return &gridError{AxisData, fmt.Sprintf("grid %s: data-parallel width below 1", g)}
	case g.ExpertParallel < 1:
		return &gridError{AxisExpert, fmt.Sprintf("grid %s: expert-parallel width below 1", g)}
	case g.Pipeline < 0 || g.Virtual < 0:
		return &gridError{AxisPipe, fmt.Sprintf("negative pipeline knobs pp=%d v=%d", g.Pipeline, g.Virtual)}
	case g.VPP() > 1 && g.PP() < 2:
		return &gridError{AxisPipe, fmt.Sprintf("virtual stages (V=%d) require a pipeline (PP=%d)", g.VPP(), g.PP())}
	}
	return nil
}

// Check validates the grid for a run on ranks ranks with micro
// micro-batches per step and, when experts > 0, an expert pool of that
// many experts per MoE layer: the interleaved schedule needs micro
// divisible by the depth, the grid must cover the ranks exactly, and
// the pool must shard evenly over EP. A rejection's error has an
// Axis() string method naming the axis at fault ("" when the grid does
// not cover the ranks).
func (g Grid) Check(ranks, experts, micro int) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if g.VPP() > 1 && micro%g.PP() != 0 {
		return &gridError{AxisPipe, fmt.Sprintf("interleaving needs M=%d divisible by PP=%d", micro, g.PP())}
	}
	if g.Size() != ranks {
		return &gridError{"", fmt.Sprintf("DP=%d x EP=%d x PP=%d != %d ranks", g.DataParallel, g.ExpertParallel, g.PP(), ranks)}
	}
	if experts > 0 && experts%g.ExpertParallel != 0 {
		return &gridError{AxisExpert, fmt.Sprintf("%d experts not divisible by EP=%d", experts, g.ExpertParallel)}
	}
	return nil
}

// gridError is a rejection by Validate or Check.
type gridError struct{ axis, msg string }

func (e *gridError) Error() string { return "layout: " + e.msg }

// Axis names the axis whose knob the rejection is about.
func (e *gridError) Axis() string { return e.axis }
