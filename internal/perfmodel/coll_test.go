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
// base runs op once on n elements (a gather's per rank, an exchange's
// rows a destination), on a 16-bit gradient wire or under the FP16
// exchange codec when half, from root for Bcast and Reduce, with a slot
// id a row when meta.
type collCase struct {
	sn, nodes, rpn     int
	base, stride, size int
	op                 string
	n, root            int
	half, meta         bool
}

func (cc collCase) String() string {
	return fmt.Sprintf("%dsn×%dnode×%drpn/[%d+%d·i]×%d/%s n=%d root=%d half=%v meta=%v",
		cc.sn, cc.nodes, cc.rpn, cc.base, cc.stride, cc.size, cc.op, cc.n, cc.root, cc.half, cc.meta)
}

var collOps = []string{"AllReduce", "ReduceScatterShard", "AllGatherShard", "AllGather", "AllGatherInts", "Barrier", "Bcast", "Reduce", "Direct", "Rail"}

// rowWidth is an exchange row's floats.
const rowWidth = 16

// collCases samples group shapes — inside one node, inside one
// supernode, across 2–4 supernodes, uneven supernodes (4 + 3, where the
// reslice moves ranges) and strided data-parallel groups — against every
// collective, sizes that do and do not divide among the members, and
// both gradient wires; and against both exchanges, both codecs, with and
// without slot ids, at 1–3 rows a destination.
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
				if half && op != "AllReduce" && op != "ReduceScatterShard" && op != "Direct" && op != "Rail" {
					continue
				}
				if op == "Direct" || op == "Rail" {
					for _, meta := range []bool{false, true} {
						out = append(out, collCase{sh.sn, sh.nodes, sh.rpn, sh.base, sh.stride, sh.size, op, 1 + rng.Intn(3), 0, half, meta})
					}
					continue
				}
				sizes := []int{sh.size * (1 + rng.Intn(40)), 1 + rng.Intn(300)}
				if op == "AllGather" || op == "AllGatherInts" {
					sizes = []int{1, 1 + rng.Intn(5)}
				} else if op == "Barrier" {
					sizes = []int{0}
				}
				for _, n := range sizes {
					out = append(out, collCase{sh.sn, sh.nodes, sh.rpn, sh.base, sh.stride, sh.size, op, n, rng.Intn(sh.size), half, false})
				}
			}
		}
	}
	return out
}

// start is the common clock the sampled collectives start at.
const start = 1.0

// executed runs cc's collective on the simulator and returns each
// member's clock after it (after an exchange's local leg in marks), the
// world's traffic beyond forming the group and the members' exchange
// counters; with op "" it runs nothing but the group's forming.
func executed(cc collCase, op string) ([]float64, []float64, simnet.Traffic, mpi.WireStats) {
	m := sunway.TestMachine(cc.sn, cc.nodes)
	w := mpi.NewWorld(cc.sn*cc.nodes*cc.rpn, simnet.New(m, cc.rpn))
	ends, marks := make([]float64, cc.size), make([]float64, cc.size)
	wire := make([]mpi.WireStats, cc.size)
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
		case "Direct", "Rail":
			counts := make([]int, c.Size())
			for d := range counts {
				counts[d] = cc.n * rowWidth
			}
			sb := mpi.NewSendBuf(counts)
			for d := range counts {
				for r := 0; r < cc.n; r++ {
					sb.Append(d, make([]float32, rowWidth))
				}
				if cc.meta {
					sb.SetMeta(d, make([]int, cc.n))
				}
			}
			codec := mpi.FP32Wire
			if cc.half {
				codec = mpi.FP16Wire
			}
			ex := c.BeginExchange(op == "Rail", codec)
			ex.PostAll(sb)
			ex.Flush()
			sb.Release()
			ex.RecvLocal().Release()
			marks[c.Rank()] = c.Now()
			ex.RecvRemote().Release()
			wire[c.Rank()] = c.WireStats()
		}
		ends[c.Rank()] = c.Now()
	})
	var ws mpi.WireStats
	for _, x := range wire {
		for l := simnet.NodeLevel; l <= simnet.MachineLevel; l++ {
			ws.Wire[l] += x.Wire[l]
			ws.Msgs[l] += x.Msgs[l]
		}
	}
	return ends, marks, w.Stats().Snapshot(), ws
}

// priced prices cc's collective with the step walk, every member
// starting at the common clock on idle ports, and returns each member's
// end and clock at an exchange's mark, the group's traffic and how many
// members the walk kept.
func priced(cc collCase) ([]float64, []float64, simnet.Traffic, int) {
	w := &walker{topo: simnet.New(sunway.TestMachine(cc.sn, cc.nodes), cc.rpn), comms: map[[3]int]*comm{}}
	c := w.comm(cc.base, cc.size, cc.stride)
	k, z := coll.Dissemination, load{width: [3]float64{4, 4, 4}}
	switch cc.op {
	case "AllReduce":
		k = c.g.Algo(coll.RingAllReduce)
	case "ReduceScatterShard":
		k = c.g.Algo(coll.RingReduceScatter)
	case "AllGatherShard":
		k = c.g.Algo(coll.RingAllGather)
	case "AllGatherInts", "Barrier":
		z.width = ints
	case "Bcast":
		k = coll.Bcast
	case "Reduce":
		k = coll.Reduce
	case "Direct", "Rail":
		k = c.g.Exchange(cc.op == "Rail")
		z = load{rows: float64(cc.n), row: 4 * rowWidth, cross: 4 * rowWidth}
		if cc.half {
			z.cross = 2 * rowWidth
		}
		if cc.meta {
			z.row, z.cross = z.row+8, z.cross+8
		}
	}
	exchange := k == coll.Direct || k == coll.Rail
	if cc.half && !exchange {
		z.width = [3]float64{2, 4, 2}
	}
	ends, marks := make([]float64, cc.size), make([]float64, cc.size)
	if cc.size == 1 {
		for i := range ends {
			ends[i], marks[i] = start, start
		}
		return ends, marks, simnet.Traffic{}, 1
	}
	n := cc.n
	if k == coll.Dissemination {
		n *= cc.size // the gather's buffer
	} else if exchange {
		n = 0
	}
	p := c.plan(k, cc.root, n, true)
	ms := make([]member, p.cls.Reps(cc.size))
	for x := range ms {
		ms[x] = member{now: start, floor: math.Inf(1), ports: &simnet.Ports{}}
	}
	t := w.price(c, k, cc.root, n, &z, ms, true)
	for q := range ends {
		ends[q], marks[q] = ms[p.cls.Rep(q)].now, ms[p.cls.Rep(q)].mark
	}
	return ends, marks, t, len(ms)
}

// TestCollectivePriceEqualsExecuted: for one collective or exchange at
// a time, started at one clock on idle ports, the step walk's price of
// each member's end — and of an exchange's local leg, at its mark — is
// the simulator's clock exactly, and so are the messages and bytes per
// level, the exchange counters included — on every sampled group shape,
// size, wire and collective, whether the walk keeps every member or one
// per class. The walk and mpi run the same step lists.
func TestCollectivePriceEqualsExecuted(t *testing.T) {
	classed := 0
	for _, cc := range collCases() {
		got, gotMarks, traffic, kept := priced(cc)
		classed += b2i(kept < cc.size)
		want, marks, all, wire := executed(cc, cc.op)
		_, _, base, _ := executed(cc, "")
		want0 := all.Sub(base)
		for q := range want {
			if got[q] != want[q] {
				t.Errorf("%v: member %d priced to end at %v, executed %v", cc, q, got[q], want[q])
				break
			}
			if x := cc.op == "Direct" || cc.op == "Rail"; x && gotMarks[q] != marks[q] {
				t.Errorf("%v: member %d priced to end its local leg at %v, executed %v", cc, q, gotMarks[q], marks[q])
				break
			}
		}
		if traffic != want0 {
			t.Errorf("%v: priced traffic %+v, executed %+v", cc, traffic, want0)
		}
		if cc.op == "Direct" || cc.op == "Rail" {
			if wire.Msgs != traffic.Msgs || wire.Wire != traffic.Bytes {
				t.Errorf("%v: exchange counters %+v, priced traffic %+v", cc, wire, traffic)
			}
		}
	}
	if classed == 0 {
		t.Error("no sampled collective was priced one member per class")
	}
	t.Logf("%d of %d sampled collectives priced one member per class", classed, len(collCases()))
}
