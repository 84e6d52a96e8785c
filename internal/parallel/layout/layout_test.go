package layout

import (
	"errors"
	"slices"
	"testing"
)

// TestGroupsAndColors pins the fold table: per axis, the color of every
// rank (its group's lowest rank), and the grid's label.
func TestGroupsAndColors(t *testing.T) {
	for _, row := range []struct {
		g                  Grid
		label              string
		ep, dp, stage, col []int
	}{
		{
			g: Grid{DataParallel: 4, ExpertParallel: 2}, label: "dp4xep2",
			ep:    []int{0, 0, 2, 2, 4, 4, 6, 6},
			dp:    []int{0, 1, 0, 1, 0, 1, 0, 1},
			stage: []int{0, 0, 0, 0, 0, 0, 0, 0},
			col:   []int{0, 1, 2, 3, 4, 5, 6, 7},
		},
		{
			g: Grid{DataParallel: 2, ExpertParallel: 2, Pipeline: 2}, label: "dp2xep2xpp2",
			ep:    []int{0, 0, 2, 2, 4, 4, 6, 6},
			dp:    []int{0, 1, 0, 1, 4, 5, 4, 5},
			stage: []int{0, 0, 0, 0, 4, 4, 4, 4},
			col:   []int{0, 1, 2, 3, 0, 1, 2, 3},
		},
		{
			g: Grid{DataParallel: 2, ExpertParallel: 1, Pipeline: 4, Virtual: 2}, label: "dp2xep1xpp4v2",
			ep:    []int{0, 1, 2, 3, 4, 5, 6, 7},
			dp:    []int{0, 0, 2, 2, 4, 4, 6, 6},
			stage: []int{0, 0, 2, 2, 4, 4, 6, 6},
			col:   []int{0, 1, 0, 1, 0, 1, 0, 1},
		},
		{
			// Depth 1 labels no pipeline, whatever Pipeline and Virtual
			// hold.
			g: Grid{DataParallel: 1, ExpertParallel: 8, Pipeline: 1, Virtual: 2}, label: "dp1xep8",
			ep:    []int{0, 0, 0, 0, 0, 0, 0, 0},
			dp:    []int{0, 1, 2, 3, 4, 5, 6, 7},
			stage: []int{0, 0, 0, 0, 0, 0, 0, 0},
			col:   []int{0, 1, 2, 3, 4, 5, 6, 7},
		},
	} {
		if got := row.g.String(); got != row.label {
			t.Errorf("%+v: label %q, want %q", row.g, got, row.label)
		}
		for _, ax := range []struct {
			name string
			want []int
		}{{AxisExpert, row.ep}, {AxisData, row.dp}, {AxisStage, row.stage}, {AxisPipe, row.col}} {
			got := make([]int, row.g.Size())
			for r := range got {
				got[r] = row.g.Color(ax.name, r)
			}
			if !slices.Equal(got, ax.want) {
				t.Errorf("%s %s colors %v, want %v", row.label, ax.name, got, ax.want)
			}
		}
	}
}

// TestRankCoordRoundTrip: the stage, dp and ep coordinates address
// every rank once — rank = stage·DP·EP + dp·EP + ep — and the index
// inside the stage is dp·EP + ep.
func TestRankCoordRoundTrip(t *testing.T) {
	g := Grid{DataParallel: 3, ExpertParallel: 4, Pipeline: 2}
	if g.Size() != 24 {
		t.Fatalf("size %d", g.Size())
	}
	for r := 0; r < g.Size(); r++ {
		pp, dp, ep := g.Coord(AxisPipe, r), g.Coord(AxisData, r), g.Coord(AxisExpert, r)
		if got := pp*12 + dp*4 + ep; got != r {
			t.Fatalf("rank %d -> (%d, %d, %d) -> %d", r, pp, dp, ep, got)
		}
		if w := g.Coord(AxisStage, r); w != dp*4+ep {
			t.Fatalf("rank %d: within %d != dp%d*4+ep%d", r, w, dp, ep)
		}
	}
}

// TestFoldSharesRankSet: a stage — the dense replication group — is
// exactly its MoE dp×ep sub-grid: every rank's ep and dp groups lie
// inside its stage, and an ep group meets a dp group in one rank.
func TestFoldSharesRankSet(t *testing.T) {
	g := Grid{DataParallel: 3, ExpertParallel: 4, Pipeline: 2}
	for r := 0; r < g.Size(); r++ {
		for q := 0; q < g.Size(); q++ {
			sameEP := g.Color(AxisExpert, q) == g.Color(AxisExpert, r)
			sameDP := g.Color(AxisData, q) == g.Color(AxisData, r)
			if (sameEP || sameDP) && g.Color(AxisStage, q) != g.Color(AxisStage, r) {
				t.Fatalf("ranks %d and %d share a group across stages", r, q)
			}
			if sameEP && sameDP != (q == r) {
				t.Fatalf("ranks %d and %d: same ep group, same dp group %v", r, q, sameDP)
			}
		}
	}
}

// TestFoldReducesToMoDa: at depth 1 the grid is the MoDa grid —
// contiguous EP groups (rank/EP), strided DP groups (rank%EP), one stage.
func TestFoldReducesToMoDa(t *testing.T) {
	g := Grid{DataParallel: 4, ExpertParallel: 2}
	for r := 0; r < 8; r++ {
		for q := 0; q < 8; q++ {
			if same := g.Color(AxisExpert, r) == g.Color(AxisExpert, q); same != (r/2 == q/2) {
				t.Fatalf("ranks %d, %d: same ep group %v", r, q, same)
			}
			if same := g.Color(AxisData, r) == g.Color(AxisData, q); same != (r%2 == q%2) {
				t.Fatalf("ranks %d, %d: same dp group %v", r, q, same)
			}
		}
		if g.Coord(AxisPipe, r) != 0 || g.Coord(AxisStage, r) != r {
			t.Fatalf("rank %d: stage %d within %d at depth 1", r, g.Coord(AxisPipe, r), g.Coord(AxisStage, r))
		}
	}
}

// TestFoldValidates pins which axis each rejection names.
func TestFoldValidates(t *testing.T) {
	for _, row := range []struct {
		g                     Grid
		ranks, experts, micro int
		axis                  string // the axis a rejection names, "" for the rank count
		ok                    bool
	}{
		{Grid{DataParallel: 2, ExpertParallel: 4}, 8, 16, 1, "", true},
		{Grid{DataParallel: 2, ExpertParallel: 1, Pipeline: 4, Virtual: 2}, 8, 0, 8, "", true},
		{Grid{DataParallel: -2, ExpertParallel: -4}, 8, 0, 1, AxisData, false},
		{Grid{DataParallel: 0, ExpertParallel: 0}, 8, 0, 1, AxisData, false},
		{Grid{DataParallel: 8, ExpertParallel: 0}, 8, 0, 1, AxisExpert, false},
		{Grid{DataParallel: 2, ExpertParallel: 2, Pipeline: -1}, 4, 0, 1, AxisPipe, false},
		{Grid{DataParallel: 2, ExpertParallel: 2, Virtual: 2}, 4, 0, 2, AxisPipe, false},
		{Grid{DataParallel: 1, ExpertParallel: 2, Pipeline: 2, Virtual: 2}, 4, 0, 3, AxisPipe, false},
		{Grid{DataParallel: 2, ExpertParallel: 2}, 8, 0, 1, "", false},
		{Grid{DataParallel: 2, ExpertParallel: 4}, 8, 6, 1, AxisExpert, false},
	} {
		err := row.g.Check(row.ranks, row.experts, row.micro)
		if row.ok {
			if err != nil {
				t.Errorf("%+v rejected: %v", row.g, err)
			}
			continue
		}
		var at interface{ Axis() string }
		if !errors.As(err, &at) || at.Axis() != row.axis {
			t.Errorf("%+v on %d ranks, %d experts, M=%d: %v, want a rejection on axis %q",
				row.g, row.ranks, row.experts, row.micro, err, row.axis)
		}
	}
}
