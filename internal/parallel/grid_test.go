package parallel

import (
	"slices"
	"testing"

	"bagualu/internal/mpi"
	"bagualu/internal/parallel/layout"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
	"bagualu/internal/train"
)

// TestEngineFormsGridGroups builds every [pp, dp, ep] grid of up to 8
// ranks (the virtual-stage count drawn per pipelined grid) and checks
// that the communicators NewEngine splits hold exactly the members the
// fold table gives — the groups perfmodel prices — in table order: the
// stage, ep and dp groups, and the pipeline column.
func TestEngineFormsGridGroups(t *testing.T) {
	r := tensor.NewRNG(34)
	var grids []Strategy
	for pp := 1; pp <= 8; pp++ {
		for ep := 1; pp*ep <= 8; ep *= 2 {
			for dp := 1; pp*ep*dp <= 8; dp++ {
				g := Strategy{DataParallel: dp, ExpertParallel: ep, Pipeline: pp}
				if pp > 1 {
					g.Virtual = 1 + r.Intn(2)
				}
				grids = append(grids, g)
			}
		}
	}
	for _, g := range grids {
		t.Run(g.String(), func(t *testing.T) {
			mc := tinyModelCfg(1)
			mc.NumExperts = 8
			mc.GPT.Layers = g.PP() * g.VPP()
			got := make([]map[string][]int, g.Size())
			w := mpi.NewWorld(g.Size(), simnet.New(sunway.TestMachine(2, 2), 1))
			w.Run(func(c *mpi.Comm) {
				e, err := NewEngine(c, g, mc, tinyCorpusCfg(), pipeTrainCfg(g.PP()), train.NewAdam(0), 5)
				if err != nil {
					t.Error(err)
					return
				}
				got[c.Rank()] = map[string][]int{
					layout.AxisStage: members(e.Stage), layout.AxisExpert: members(e.EP),
					layout.AxisData: members(e.DP), layout.AxisPipe: members(e.PPComm),
				}
			})
			for rank, groups := range got {
				for axis, have := range groups {
					size, stride := g.Group(axis)
					first := rank - g.Coord(axis, rank)*stride
					want := make([]int, size)
					for k := range want {
						want[k] = first + k*stride
					}
					if !slices.Equal(have, want) {
						t.Errorf("rank %d %s group %v, table says %v", rank, axis, have, want)
					}
				}
			}
		})
	}
}

// members lists c's global ranks in comm-rank order.
func members(c *mpi.Comm) []int {
	out := make([]int, c.Size())
	for q := range out {
		out[q] = c.Global(q)
	}
	return out
}
