package perfmodel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bagualu/internal/mpi"
	"bagualu/internal/simnet"
	"bagualu/internal/simnet/coll"
	"bagualu/internal/sunway"
)

// collCase is one sampled collective: on a world of sn supernodes of
// nodes nodes of rpn ranks, the group of size ranks stride apart from
// base runs op once on n elements (a gather's per rank), on a 16-bit
// gradient wire when half, from root for Bcast and Reduce.
type collCase struct {
	sn, nodes, rpn     int
	base, stride, size int
	op                 string
	n, root            int
	half               bool
}

func (cc collCase) String() string {
	return fmt.Sprintf("%dsn×%dnode×%drpn/[%d+%d·i]×%d/%s n=%d root=%d half=%v",
		cc.sn, cc.nodes, cc.rpn, cc.base, cc.stride, cc.size, cc.op, cc.n, cc.root, cc.half)
}

var collOps = []string{"AllReduce", "ReduceScatterShard", "AllGatherShard", "AllGather", "AllGatherInts", "Barrier", "Bcast", "Reduce"}

// collCases samples group shapes — inside one node, inside one
// supernode, across 2–4 supernodes, uneven supernodes (4 + 3, where the
// reslice moves ranges) and strided data-parallel groups — against every
// collective, sizes that do and do not divide among the members, and
// both gradient wires.
func collCases() []collCase {
	type shape struct{ sn, nodes, rpn, base, stride, size int }
	shapes := []shape{
		{1, 1, 4, 0, 1, 4},  // one node
		{1, 1, 4, 1, 1, 3},  // part of one node
		{1, 4, 1, 0, 1, 4},  // one supernode, a rank a node
		{1, 4, 2, 0, 1, 8},  // one supernode, two ranks a node
		{2, 2, 1, 0, 1, 4},  // two supernodes
		{2, 2, 2, 0, 1, 8},  // two supernodes, two ranks a node
		{3, 2, 1, 0, 1, 6},  // three supernodes
		{4, 1, 2, 0, 1, 8},  // four supernodes of one node
		{4, 2, 1, 0, 1, 8},  // four supernodes of two nodes
		{2, 4, 1, 0, 1, 7},  // uneven: 4 + 3
		{2, 2, 2, 0, 2, 4},  // strided dp group
		{2, 2, 2, 1, 2, 4},  // strided dp group off rank 0
		{4, 2, 1, 0, 2, 4},  // strided across four supernodes
		{2, 2, 1, 0, 2, 2},  // two members, two supernodes
		{3, 1, 1, 0, 1, 3},  // three members, three supernodes
		{2, 2, 2, 0, 1, 3},  // three members on one supernode
		{1, 2, 2, 0, 1, 1},  // alone
		{2, 4, 2, 0, 1, 12}, // 8 + 4
	}
	rng := rand.New(rand.NewSource(52))
	var out []collCase
	for _, sh := range shapes {
		for _, op := range collOps {
			for _, half := range []bool{false, true} {
				if half && op != "AllReduce" && op != "ReduceScatterShard" {
					continue
				}
				sizes := []int{sh.size * (1 + rng.Intn(40)), 1 + rng.Intn(300)}
				if op == "AllGather" || op == "AllGatherInts" {
					sizes = []int{1, 1 + rng.Intn(5)}
				} else if op == "Barrier" {
					sizes = []int{0}
				}
				for _, n := range sizes {
					out = append(out, collCase{sh.sn, sh.nodes, sh.rpn, sh.base, sh.stride, sh.size, op, n, rng.Intn(sh.size), half})
				}
			}
		}
	}
	return out
}

// start is the common clock the sampled collectives start at.
const start = 1.0

// executed runs cc's collective on the simulator and returns each
// member's clock after it, and the world's traffic beyond forming the
// group; with op "" it runs nothing but the group's forming.
func executed(cc collCase, op string) ([]float64, simnet.Traffic) {
	m := sunway.TestMachine(cc.sn, cc.nodes)
	w := mpi.NewWorld(cc.sn*cc.nodes*cc.rpn, simnet.New(m, cc.rpn))
	ends := make([]float64, cc.size)
	scale := float32(0)
	if cc.half {
		scale = 1024
	}
	gw := mpi.GradWire{Scale: scale}
	w.Run(func(wc *mpi.Comm) {
		i, color := (wc.Rank()-cc.base)/cc.stride, -1
		if wc.Rank() >= cc.base && (wc.Rank()-cc.base)%cc.stride == 0 && i < cc.size {
			color = 0
		}
		c := wc.Split(color, i)
		if c == nil {
			return
		}
		c.AdvanceTo(start)
		data := make([]float32, cc.n)
		for k := range data {
			data[k] = float32((k+3*c.Rank())%7) / 8
		}
		switch op {
		case "AllReduce":
			c.AllReduceGrads(data, gw)
		case "ReduceScatterShard":
			c.ReduceScatterShard(data, gw)
		case "AllGatherShard":
			s := c.MyShard(cc.n)
			c.AllGatherShard(data[s.Lo:s.Hi], cc.n)
		case "AllGather":
			c.AllGather(data)
		case "AllGatherInts":
			c.AllGatherInts(make([]int, cc.n))
		case "Barrier":
			c.Barrier()
		case "Bcast":
			if c.Rank() != cc.root {
				data = nil
			}
			c.Bcast(cc.root, data)
		case "Reduce":
			c.Reduce(cc.root, data, mpi.OpSum)
		}
		ends[c.Rank()] = c.Now()
	})
	return ends, w.Stats().Snapshot()
}

// priced prices cc's collective with the step walk, every member
// starting at the common clock on idle ports, and returns each member's
// end, the group's traffic and how many members the walk kept.
func priced(cc collCase) ([]float64, simnet.Traffic, int) {
	w := &walker{topo: simnet.New(sunway.TestMachine(cc.sn, cc.nodes), cc.rpn), comms: map[[3]int]*comm{}}
	c := w.comm(cc.base, cc.size, cc.stride)
	k, width := coll.Dissemination, [3]float64{4, 4, 4}
	switch cc.op {
	case "AllReduce":
		k = c.g.Algo(coll.RingAllReduce)
	case "ReduceScatterShard":
		k = c.g.Algo(coll.RingReduceScatter)
	case "AllGatherShard":
		k = c.g.Algo(coll.RingAllGather)
	case "AllGatherInts", "Barrier":
		width = ints
	case "Bcast":
		k = coll.Bcast
	case "Reduce":
		k = coll.Reduce
	}
	if cc.half {
		width = [3]float64{2, 4, 2}
	}
	ends := make([]float64, cc.size)
	if cc.size == 1 {
		for i := range ends {
			ends[i] = start
		}
		return ends, simnet.Traffic{}, 1
	}
	n := cc.n
	if k == coll.Dissemination {
		n *= cc.size // the gather's buffer
	}
	p := c.plan(k, cc.root, n, true)
	ms := make([]member, p.cls.Reps(cc.size))
	for x := range ms {
		ms[x] = member{now: start, floor: math.Inf(1), ports: &simnet.Ports{}}
	}
	t := w.price(c, k, cc.root, n, width, ms, true)
	for q := range ends {
		ends[q] = ms[p.cls.Rep(q)].now
	}
	return ends, t, len(ms)
}

// TestCollectivePriceEqualsExecuted: for one collective at a time,
// started at one clock on idle ports, the step walk's price of each
// member's end is the simulator's clock exactly, and so are the
// messages and bytes per level — on every sampled group shape, size,
// wire and collective, whether the walk keeps every member or one per
// class. The walk and mpi run the same step lists.
func TestCollectivePriceEqualsExecuted(t *testing.T) {
	classed := 0
	for _, cc := range collCases() {
		got, traffic, kept := priced(cc)
		classed += b2i(kept < cc.size)
		want, all := executed(cc, cc.op)
		_, base := executed(cc, "")
		want0 := all.Sub(base)
		for q := range want {
			if got[q] != want[q] {
				t.Errorf("%v: member %d priced to end at %v, executed %v", cc, q, got[q], want[q])
				break
			}
		}
		if traffic != want0 {
			t.Errorf("%v: priced traffic %+v, executed %+v", cc, traffic, want0)
		}
	}
	if classed == 0 {
		t.Error("no sampled collective was priced one member per class")
	}
	t.Logf("%d of %d sampled collectives priced one member per class", classed, len(collCases()))
}
