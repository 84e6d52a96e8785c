package mpi_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bagualu/internal/health"
	"bagualu/internal/mpi"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
)

// geoWorld is one sampled communicator of the geometry test: a world of
// four ranks per supernode — shrunk after world rank crash fails, when
// crash >= 0 — Split down to the first members[j] ranks of supernode j,
// in reverse rank order when reverse is set.
type geoWorld struct {
	members []int
	rpn     int
	reverse bool
	crash   int
}

func (gw geoWorld) String() string {
	return fmt.Sprintf("members%v/rpn%d/reverse=%v/crash%d", gw.members, gw.rpn, gw.reverse, gw.crash)
}

// geoWorlds samples 1–4 supernodes of 1–4 members each at 1 and 2 ranks
// per node, with and without a reversed Split key and a crash, after
// the shapes on either side of Hierarchical's size bound.
func geoWorlds() []geoWorld {
	out := []geoWorld{
		{[]int{1, 1}, 1, false, -1},
		{[]int{2, 1}, 2, true, -1},
		{[]int{2, 2}, 1, false, -1},
		{[]int{4}, 2, false, -1},
		{[]int{3, 2}, 1, false, 0},
		{[]int{4, 4, 4, 4}, 2, true, 5},
		{[]int{1, 3, 2}, 1, true, 4},
	}
	rng := rand.New(rand.NewSource(25))
	for i := 0; i < 40; i++ {
		gw := geoWorld{members: make([]int, 1+rng.Intn(4)), rpn: 1 + rng.Intn(2), reverse: rng.Intn(2) == 1, crash: -1}
		for j := range gw.members {
			gw.members[j] = 1 + rng.Intn(4)
		}
		if j := rng.Intn(len(gw.members)); rng.Intn(2) == 1 {
			gw.crash = 4*j + rng.Intn(gw.members[j])
		}
		out = append(out, gw)
	}
	return out
}

// run executes fn on the sampled communicator.
func (gw geoWorld) run(fn func(c *mpi.Comm)) {
	const perSN = 4
	topo := simnet.New(sunway.TestMachine(len(gw.members), perSN/gw.rpn), gw.rpn)
	mpi.NewWorld(perSN*len(gw.members), topo).Run(func(c *mpi.Comm) {
		if gw.crash >= 0 {
			if c.Rank() == gw.crash {
				c.Abandon()
				return
			}
			mpi.Protect(c.Barrier) // absorb the detection
			c = c.Shrink()
		}
		g := c.Global(c.Rank())
		color, key := -1, g
		if g%perSN < gw.members[g/perSN] {
			color = 0
		}
		if gw.reverse {
			key = -key
		}
		if sub := c.Split(color, key); sub != nil {
			fn(sub)
		}
	})
}

// bruteSupernodes groups comm ranks by supernode the long way: a rank's
// leader is the lowest comm rank in its supernode, and groups are listed
// by ascending leader.
func bruteSupernodes(c *mpi.Comm) [][]int {
	t := c.Topology()
	sn := func(q int) int { return t.Supernode(c.Global(q)) }
	var groups [][]int
	for l := 0; l < c.Size(); l++ {
		leader := true
		for q := 0; q < l; q++ {
			leader = leader && sn(q) != sn(l)
		}
		if !leader {
			continue
		}
		var g []int
		for q := l; q < c.Size(); q++ {
			if sn(q) == sn(l) {
				g = append(g, q)
			}
		}
		groups = append(groups, g)
	}
	return groups
}

// TestSupernodeGeometry checks the communicator's one supernode
// structure on sampled worlds, including split and shrunk ones: it is
// the brute-force grouping, Hierarchical is exactly "more than one
// group and at least 4 ranks", and CollectScores' leaders — the ranks
// that hear from other supernodes — are each group's first rank.
func TestSupernodeGeometry(t *testing.T) {
	for _, gw := range geoWorlds() {
		gw.run(func(c *mpi.Comm) {
			groups, of := c.Supernodes()
			if want := bruteSupernodes(c); !reflect.DeepEqual(groups, want) {
				t.Errorf("%v rank %d: Supernodes %v, brute force %v", gw, c.Rank(), groups, want)
				return
			}
			for j, g := range groups {
				for _, q := range g {
					if of[q] != j {
						t.Errorf("%v rank %d: of[%d] = %d, want %d", gw, c.Rank(), q, of[q], j)
					}
				}
			}
			if want := len(groups) > 1 && len(of) >= 4; c.Hierarchical() != want {
				t.Errorf("%v rank %d: Hierarchical %v with %d groups of %d ranks", gw, c.Rank(), c.Hierarchical(), len(groups), c.Size())
			}

			// Every receive so far is forgotten; what CollectScores
			// receives is the telemetry tree: a leader hears from its
			// members and the other leaders, a member from its leader.
			c.TakeLinkObservations()
			health.CollectScores(c, make([]float64, c.Size()))
			heard := map[int]bool{}
			for g, v := range c.TakeLinkObservations() {
				if v > 0 {
					heard[g] = true
				}
			}
			want := map[int]bool{}
			if c.Size() > 1 {
				mine := groups[of[c.Rank()]]
				if mine[0] != c.Rank() {
					want[c.Global(mine[0])] = true
				} else {
					for _, q := range mine[1:] {
						want[c.Global(q)] = true
					}
					for _, g := range groups {
						if g[0] != c.Rank() {
							want[c.Global(g[0])] = true
						}
					}
				}
			}
			if !reflect.DeepEqual(heard, want) {
				t.Errorf("%v rank %d: CollectScores heard from global ranks %v, want %v", gw, c.Rank(), heard, want)
			}
		})
	}
}
