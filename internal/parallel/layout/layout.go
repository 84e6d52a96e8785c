// Package layout describes process-grid layouts: an ordered list of
// named axes whose sizes multiply to the rank count, with rank ↔
// coordinate maps and per-axis group/color helpers. It generalizes
// the hard-coded DP×EP split of the MoDa grid to arbitrary axis
// stacks (pp × dp × ep today) and is the single source of truth the
// engine, checkpointing, fault recovery, the perf model, and the
// autotuner consume.
//
// The key construct is the *folded pair* (Fold): attention/dense
// layers and MoE layers use *different* layouts over the same rank
// set — "MoE Parallel Folding". Dense layers see [pp, data] where the
// data axis folds dp·ep ranks into one replication group per stage;
// MoE layers see [pp, dp, ep] where the innermost ep axis keeps
// all-to-all partners contiguous (lowest network tier) and dp strides
// across them. At pp=1 both reduce exactly to the MoDa grid.
package layout

import "fmt"

// Axis is one named dimension of a process grid.
type Axis struct {
	Name string
	Size int
}

// Layout is an ordered axis stack over ranks 0..Size()-1, row-major:
// the last axis varies fastest (its groups are contiguous rank
// ranges), the first slowest.
type Layout struct {
	name    string
	axes    []Axis
	strides []int // rank stride of each axis
	size    int
}

// New builds a layout from an ordered axis list.
func New(name string, axes ...Axis) (*Layout, error) {
	if len(axes) == 0 {
		return nil, fmt.Errorf("layout %s: no axes", name)
	}
	l := &Layout{name: name, axes: append([]Axis(nil), axes...), size: 1}
	for _, a := range axes {
		if a.Size < 1 {
			return nil, fmt.Errorf("layout %s: axis %s size %d", name, a.Name, a.Size)
		}
		if a.Name == "" {
			return nil, fmt.Errorf("layout %s: unnamed axis", name)
		}
		l.size *= a.Size
	}
	l.strides = make([]int, len(axes))
	stride := 1
	for i := len(axes) - 1; i >= 0; i-- {
		l.strides[i] = stride
		stride *= axes[i].Size
	}
	seen := map[string]bool{}
	for _, a := range axes {
		if seen[a.Name] {
			return nil, fmt.Errorf("layout %s: duplicate axis %s", name, a.Name)
		}
		seen[a.Name] = true
	}
	return l, nil
}

// Name returns the layout's name.
func (l *Layout) Name() string { return l.name }

// Size returns the total rank count.
func (l *Layout) Size() int { return l.size }

// AxisIndex returns the position of the named axis, or -1.
func (l *Layout) AxisIndex(name string) int {
	for i, a := range l.axes {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// Coord maps a rank to its coordinate along each axis.
func (l *Layout) Coord(rank int) []int {
	if rank < 0 || rank >= l.size {
		panic(fmt.Sprintf("layout %s: rank %d out of %d", l.name, rank, l.size))
	}
	c := make([]int, len(l.axes))
	for i := range l.axes {
		c[i] = (rank / l.strides[i]) % l.axes[i].Size
	}
	return c
}

// Rank maps a coordinate back to its rank.
func (l *Layout) Rank(coord []int) int {
	if len(coord) != len(l.axes) {
		panic(fmt.Sprintf("layout %s: coord has %d axes, want %d", l.name, len(coord), len(l.axes)))
	}
	r := 0
	for i, c := range coord {
		if c < 0 || c >= l.axes[i].Size {
			panic(fmt.Sprintf("layout %s: coord %d out of axis %s size %d", l.name, c, l.axes[i].Name, l.axes[i].Size))
		}
		r += c * l.strides[i]
	}
	return r
}

// AxisCoord returns rank's coordinate along the named axis (0 if the
// layout does not carry it).
func (l *Layout) AxisCoord(rank int, axis string) int {
	i := l.AxisIndex(axis)
	if i < 0 {
		return 0
	}
	return (rank / l.strides[i]) % l.axes[i].Size
}

// GroupColor returns a color identifying rank's group along the named
// axis: all ranks whose coordinates agree on every *other* axis share
// a color. Feeding the color to mpi.Comm.Split (with the rank as key)
// yields one communicator per group, ordered by axis coordinate.
func (l *Layout) GroupColor(rank int, axis string) int {
	i := l.AxisIndex(axis)
	if i < 0 {
		panic(fmt.Sprintf("layout %s: no axis %s", l.name, axis))
	}
	coord := l.Coord(rank)
	color, mult := 0, 1
	for j := len(l.axes) - 1; j >= 0; j-- {
		if j == i {
			continue
		}
		color += coord[j] * mult
		mult *= l.axes[j].Size
	}
	return color
}

// Group returns the ranks of rank's group along the named axis, in
// axis-coordinate order.
func (l *Layout) Group(rank int, axis string) []int {
	i := l.AxisIndex(axis)
	if i < 0 {
		panic(fmt.Sprintf("layout %s: no axis %s", l.name, axis))
	}
	coord := l.Coord(rank)
	out := make([]int, l.axes[i].Size)
	for c := range out {
		coord[i] = c
		out[c] = l.Rank(coord)
	}
	return out
}

// Canonical axis names of the folded 4D grid.
const (
	AxisPipe   = "pp"   // pipeline stage (contiguous blocks of ranks)
	AxisData   = "dp"   // data replication (strided within a stage)
	AxisExpert = "ep"   // expert shards / all-to-all partners (contiguous)
	AxisFold   = "data" // the dense layouts' folded dp·ep axis
)

// Folded is the heterogeneous parallel-folding pair: two layouts over
// the same rank set. Dense (attention/embedding/norm/head) layers
// replicate across a stage's whole dp·ep fold; MoE layers split the
// same fold into dp replication × ep expert sharding. The pipeline
// axis is shared and outermost, so a stage is a contiguous rank block
// and every intra-stage collective stays as low in the network
// hierarchy as the machine allows.
type Folded struct {
	Dense *Layout // [pp, data] with data = dp·ep
	MoE   *Layout // [pp, dp, ep]

	PP, DP, EP int
}

// Fold builds the folded layout pair for a world of pp·dp·ep ranks.
func Fold(world, pp, dp, ep int) (Folded, error) {
	if pp < 1 || dp < 1 || ep < 1 {
		return Folded{}, fmt.Errorf("layout: non-positive fold pp=%d dp=%d ep=%d", pp, dp, ep)
	}
	if pp*dp*ep != world {
		return Folded{}, fmt.Errorf("layout: pp%d x dp%d x ep%d = %d ranks, world has %d", pp, dp, ep, pp*dp*ep, world)
	}
	dense, err := New("dense", Axis{AxisPipe, pp}, Axis{AxisFold, dp * ep})
	if err != nil {
		return Folded{}, err
	}
	moe, err := New("moe", Axis{AxisPipe, pp}, Axis{AxisData, dp}, Axis{AxisExpert, ep})
	if err != nil {
		return Folded{}, err
	}
	return Folded{Dense: dense, MoE: moe, PP: pp, DP: dp, EP: ep}, nil
}

// Stage returns rank's pipeline stage.
func (f Folded) Stage(rank int) int { return f.MoE.AxisCoord(rank, AxisPipe) }

// Within returns rank's index inside its stage (the dense layouts'
// folded data coordinate), 0..dp·ep-1.
func (f Folded) Within(rank int) int { return f.Dense.AxisCoord(rank, AxisFold) }

// PerStage returns ranks per stage.
func (f Folded) PerStage() int { return f.DP * f.EP }

// StageColor colors ranks by stage: the dense replication group.
// Splitting the world by it yields the stage communicator both dense
// gradient sync and the MoE sub-grid live on.
func (f Folded) StageColor(rank int) int { return f.Stage(rank) }

// ExpertColor colors a stage's ranks into all-to-all groups (vary ep,
// fix dp): contiguous within-stage rank ranges.
func (f Folded) ExpertColor(within int) int { return within / f.EP }

// DataColor colors a stage's ranks into MoE replication groups (vary
// dp, fix ep): strided within-stage ranks.
func (f Folded) DataColor(within int) int { return within % f.EP }

// PipeColor colors ranks by within-stage index: the pipeline
// communicator (one rank per stage, same fold coordinate) boundary
// activations travel over.
func (f Folded) PipeColor(rank int) int { return f.Within(rank) }
