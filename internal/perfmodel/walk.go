package perfmodel

import (
	"fmt"
	"math"
	"slices"

	"bagualu/internal/parallel/layout"
	"bagualu/internal/parallel/schedule"
	"bagualu/internal/simnet"
	"bagualu/internal/simnet/coll"
)

// The step walk: PredictStep runs the step the engine runs on one
// representative rank per pipeline stage (its first rank), each with a
// clock and the ports of simnet.Ports, through the stage's op list
// (schedule.Schedule). A forward waits for its boundary input, runs its
// chunk's MoE round trips (exchange, expert GEMMs on the rows received,
// return exchange), charges its units' compute and starts its boundary
// send; a backward also replays the blocks the recompute policy marks
// and charges each unit as it finishes (fused), or its input half before
// the gradient goes upstream (split; W charges the rest). The step's
// last backward through a unit issues its gradient groups as deferred
// requests; the first issue starts the scalar gather. Sends are booked
// under mpi's two rules: a blocking or started send at its clock, a
// deferred group's hops at its join, into the port time left idle. A
// boundary receive waits for the send its neighbour stage booked. Then
// each stage joins its groups, gathers the gradient norm (the pipeline
// column's across the stages' clocks), runs ZeRO's shard updates and
// all-gathers, the offload and the scalar join. What shows is what the
// walk waits for.
//
// Every collective, gather and MoE exchange is the step list mpi
// executes (internal/simnet/coll), priced hop by hop with simnet's one
// send charge (simnet.Run); an exchange's local leg ends at its list's
// mark. The walk keeps one clock and one set of ports per member it
// needs, and when a relabeling of the group maps members onto each
// other (coll.Classes) one member per class. The representative books
// on its own ports, the others on copies of them (the ranks of a group
// are alike); from the join on, each rank a collective keeps is a mate
// with its own ports and clock for the rest of the step. Priced alone
// from one clock on idle ports, each is mpi's clock exactly
// (TestCollectivePriceEqualsExecuted). The walk diverges from mpi on
// purpose three times: the machine-level β is thinned by the bisection
// (BisectionOversub; 1 on a test machine); a gradient collective's
// elements are rounded up to a multiple of its group's size, fewer than
// p more than the n mpi sends, so that its chunks, and so its members,
// are alike; and an exchange's blocks are the mean rows, a fraction of
// a row at scale, where the engine's follow the routing (RouteSkew
// prices the busiest rank's).

// comm is a communicator seen from comm rank 0, the representative.
type comm struct {
	size, base, stride int // comm rank i is global rank base + i·stride
	g                  *coll.Geometry
	plans              map[planKey]*plan
}

// rank is a stage's representative.
type rank struct {
	id            int
	now, floor    float64 // clock; earliest start of a deferred body not yet run
	ports         simnet.Ports
	ops           []schedule.Op
	next          int
	ep, dp, stage *comm
	groups        []group   // gradient groups, in join order
	issued        []float64 // each group's issue time
	left          []int     // per local chunk: backwards (W when split) to run
	sent, scalars float64   // when the boundary sends and the scalar gather end

	dense, expert, recompute, a2a, sync, offload float64 // seconds
	syncBytes, a2aBytes                          float64

	// mates are, from the join on, the ranks the collectives keep
	// besides the representative, by global rank.
	mates map[int]*mate
}

// A mate is a rank a collective keeps besides the representative, from
// the join on: its ports, which its hops of one group body still occupy
// when the next is booked (and those of its groups on other
// communicators), and its clock, which runs off seconds behind the
// representative's after a collective ends it elsewhere; end is the
// latest end of its bodies still to join.
type mate struct {
	ports    *simnet.Ports
	off, end float64
}

// settle joins every mate's bodies, as the representative joined its
// own from t: each mate's clock is the later of its own and its bodies'
// ends.
func (r *rank) settle(t float64) {
	for _, m := range r.mates {
		m.off, m.end = max(t+m.off, m.end)-r.now, math.Inf(-1)
	}
}

// A group is one gradient sync: n elements reduced over c, issued when
// unit at finishes.
type group struct {
	at     int
	c      *comm
	n      float64
	expert bool
}

// chunk is a global chunk's units, dense FLOPs per micro-batch (an MoE
// layer charges its own GEMMs), MoE blocks and replayed blocks.
type chunk struct {
	schedule.Chunk
	units        []Unit
	fwd, wgrad   float64
	moe, replays int
}

type walker struct {
	Deployment
	spec       ModelSpec
	topo       *simnet.Topology
	S, V, M    int
	chunks     []chunk
	rate, rows float64 // FLOP/s per rank, rows per micro-batch
	gemm       float64 // one MoE layer's forward expert GEMMs, seconds
	ranks      []*rank
	world      *comm
	comms      map[[3]int]*comm   // by (base, size, stride)
	arrive     map[[3]int]float64 // boundary arrival by (direction, global chunk, micro-batch)
}

// noUnit reports no unit finished.
const noUnit = math.MinInt

// walk runs one step; ranks[0] is stage 0's representative, the rank
// the simulator's measurement reads.
func (d Deployment) walk(spec ModelSpec) *walker {
	w := &walker{Deployment: d, spec: spec, topo: simnet.New(d.Machine, d.RanksPerNode),
		S: d.PP(), V: d.VPP(), M: d.Micro(), comms: map[[3]int]*comm{}, arrive: map[[3]int]float64{}}
	// The bisection thins a rank's machine-level link when every rank
	// crosses at once.
	w.topo.Beta[simnet.MachineLevel] *= d.Machine.BisectionOversub
	w.rate = d.Machine.NodeFlops(d.Precision) * d.Efficiency / float64(d.RanksPerNode)
	w.rows = float64(d.BatchPerRank * spec.SeqLen)
	w.gemm = 4 * w.rows * float64(spec.TopK) * float64(spec.Dim) * float64(spec.MoEHidden) / w.rate
	part, _ := schedule.PartitionLayers(spec.Layers, w.S*w.V)
	for _, p := range part {
		c := chunk{Chunk: p, units: spec.Units(p.Lo, p.Hi)}
		for _, u := range c.units {
			if f, wg := spec.unitFlops(u); !u.Experts {
				c.fwd, c.wgrad = c.fwd+w.rows*f, c.wgrad+w.rows*wg
			}
		}
		for b := p.Lo; b < p.Hi; b++ {
			c.moe += b2i(spec.moeBlock(b))
			c.replays += b2i(w.replays(b))
		}
		w.chunks = append(w.chunks, c)
	}
	w.world = w.comm(0, d.Ranks(), 1)
	stage, _ := d.Group(layout.AxisStage)
	ep, _ := d.Group(layout.AxisExpert)
	dp, dpStride := d.Group(layout.AxisData)
	for s := 0; s < w.S; s++ {
		r := &rank{id: s * stage, floor: math.Inf(1), left: make([]int, w.V), ops: schedule.Schedule(s, w.S, w.V, w.M)}
		r.stage, r.ep, r.dp = w.comm(r.id, stage, 1), w.comm(r.id, ep, 1), w.comm(r.id, dp, dpStride)
		for v := 0; v < w.V; v++ { // a later chunk's groups go first
			r.groups = append(w.groups(r, w.chunks[v*w.S+s].units), r.groups...)
			r.left[v] = w.M
		}
		r.issued = make([]float64, len(r.groups))
		w.ranks = append(w.ranks, r)
	}
	for moved := true; moved; {
		moved = false
		for s, r := range w.ranks {
			for ; r.next < len(r.ops) && w.ready(s, r.ops[r.next]); r.next++ {
				w.run(s, r.ops[r.next])
				moved = true
			}
		}
	}
	for _, r := range w.ranks {
		w.join(r)
	}
	// The pipeline column's norm gather, across the stages' clocks.
	ms := make([]member, w.S)
	for s, r := range w.ranks {
		ms[s] = member{now: r.now, floor: r.floor, ports: &r.ports}
	}
	w.price(w.comm(0, w.S, stage), coll.Dissemination, 0, w.S, &load{width: ints}, ms, false)
	for s, r := range w.ranks {
		r.now = ms[s].now
	}
	var scalars float64
	for _, r := range w.ranks {
		w.optimizer(r)
		scalars = max(scalars, r.scalars)
	}
	w.ranks[0].now = max(w.ranks[0].now, scalars)
	return w
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// comm returns the communicator of size ranks stride apart from base.
func (w *walker) comm(base, size, stride int) *comm {
	key := [3]int{base, size, stride}
	if c := w.comms[key]; c != nil {
		return c
	}
	c := &comm{size: size, base: base, stride: stride, plans: map[planKey]*plan{},
		g: coll.NewGeometry(w.topo, size, func(i int) int { return base + i*stride })}
	w.comms[key] = c
	return c
}

// groups cuts a chunk's units into gradient groups as parallel.Engine
// does: in finish order, a block's dense group ahead of its expert
// shard's, the embeddings inside block 0's.
func (w *walker) groups(r *rank, us []Unit) []group {
	var gs []group
	var ex group
	for i := 0; i < len(us); i++ {
		if us[i].Experts {
			ex = group{us[i].ID, r.dp, float64(us[i].Params) / float64(w.ExpertParallel), true}
			continue
		}
		dn := group{at: us[i].ID, c: r.stage, n: float64(us[i].Params)}
		if i+1 < len(us) && us[i+1].ID == -1 {
			i++
			dn.at, dn.n = -1, dn.n+float64(us[i].Params)
		}
		gs = append(gs, dn)
		if ex.n > 0 {
			gs = append(gs, ex)
		}
		ex = group{}
	}
	return gs
}

// ready reports whether op's boundary input has been sent.
func (w *walker) ready(s int, op schedule.Op) bool {
	g := op.Chunk*w.S + s
	dir := b2i(op.Kind == schedule.Bwd)
	_, sent := w.arrive[[3]int{dir, g, op.MB}]
	return sent || op.Kind == schedule.WGrad || g == 0 && dir == 0 || g+1 == len(w.chunks) && dir == 1
}

// run executes one op on stage s's representative.
func (w *walker) run(s int, op schedule.Op) {
	r, v, mb := w.ranks[s], op.Chunk, op.MB
	g := v*w.S + s
	c := &w.chunks[g]
	switch op.Kind {
	case schedule.Fwd:
		r.now = max(r.now, w.arrive[[3]int{0, g, mb}])
		for range c.moe {
			w.moe(r, 1, true, noUnit)
		}
		r.dense += w.charge(r, c.fwd)
		if g+1 < len(w.chunks) {
			w.boundary(r, 0, g+1, mb)
		}
	case schedule.Bwd:
		r.recompute += w.charge(r, c.fwd*float64(c.replays)/float64(c.Blocks()))
		r.now = max(r.now, w.arrive[[3]int{1, g, mb}])
		split := schedule.Splits(g)
		r.left[v] -= b2i(!split)
		for _, u := range c.units {
			report := noUnit
			if !split && r.left[v] == 0 {
				report = u.ID
			}
			switch {
			case u.Experts:
				if w.replays(u.Block) {
					w.moe(r, 1, true, noUnit) // the replayed forward
				}
				if split { // the weight half waits for W
					w.moe(r, 1, false, noUnit)
				} else {
					w.moe(r, 2, false, report)
				}
			case !split:
				f, _ := w.spec.unitFlops(u)
				r.dense += w.charge(r, 2*w.rows*f)
				w.issue(r, report)
			}
		}
		if split {
			r.dense += w.charge(r, 2*c.fwd-c.wgrad)
			w.boundary(r, 1, g-1, mb)
		}
	case schedule.WGrad:
		r.expert += w.charge(r, float64(c.moe)*w.gemm*w.rate)
		r.dense += w.charge(r, c.wgrad)
		if r.left[v]--; r.left[v] == 0 {
			for _, u := range c.units {
				w.issue(r, u.ID)
			}
		}
	}
}

// charge advances r's clock by flops of compute and returns the seconds.
func (w *walker) charge(r *rank, flops float64) float64 {
	r.now += flops / w.rate
	return flops / w.rate
}

// send books bytes at level l on r's ports from t; it returns when the
// last byte leaves.
func (w *walker) send(r *rank, l simnet.Level, t, bytes float64) float64 {
	end, _ := r.ports.Reserve(l, t, bytes*w.topo.Beta[l], min(t, r.floor))
	return end
}

// boundary starts the send of a micro-batch's activations (dir 0) or
// gradient (dir 1) to global chunk g's stage, booked at issue: float32
// rows, as the runner sends them in every precision.
func (w *walker) boundary(r *rank, dir, g, mb int) {
	l := w.topo.LevelOf(r.id, w.ranks[g%w.S].id)
	end := w.send(r, l, r.now, 4*w.rows*float64(w.spec.Dim))
	r.sent = max(r.sent, end)
	w.arrive[[3]int{dir, g, mb}] = end + w.topo.Alpha[l]
}

// issue records the issue of every group unit u finishes; the step's
// first starts the world gather of its loss, aux loss and overflow,
// booked ahead of every group's bytes.
func (w *walker) issue(r *rank, u int) {
	for i, g := range r.groups {
		if g.at == u {
			if math.IsInf(r.floor, 1) {
				r.scalars = w.alike(r, w.world, coll.Dissemination, load{n: 3, width: ints}, r.now, r.now, true).now
				r.floor = r.now
			}
			r.issued[i] = r.now
		}
	}
}

// moe runs an MoE round trip from r's clock: the outbound exchange, k
// forwards' worth of expert GEMMs (under the two-phase exchange the
// local leg's while the cross-supernode leg is in flight), the report of
// unit u, the return exchange. The GEMMs and the return are the
// busiest expert rank's, RouteSkew× the mean rows: every rank waits for
// its rows to come back. An exchange is the list mpi runs on the expert
// group (coll.Direct, or coll.Rail when the strategy is hierarchical),
// its local leg ending at the list's mark: each block a rank's share of
// TopK rows a token (a slot id a row outbound), a row float32 or, bound
// for another supernode under the FP16 codec, 2 bytes an element.
func (w *walker) moe(r *rank, k float64, meta bool, u int) {
	skew := max(w.RouteSkew, 1)
	t0, g := r.now, k*w.gemm*skew
	c, d := r.ep, float64(w.spec.Dim)
	kind := c.g.Exchange(w.A2A == A2AHierarchical)
	z := load{rows: w.rows * float64(w.spec.TopK) / float64(c.size), row: 4 * d, cross: 4 * d}
	if w.WireFP16 {
		z.cross = 2 * d
	}
	out := z
	if meta {
		out.row, out.cross = z.row+8, z.cross+8
	}
	ex := w.alike(r, c, kind, out, r.now, r.floor, false)
	r.now = ex.now + g
	if w.OverlapA2A {
		f := float64(len(c.g.Groups[0])) / float64(c.size)
		r.now = max(ex.mark+f*g, ex.now) + (1-f)*g
	}
	w.issue(r, u)
	z.rows *= skew
	back := w.alike(r, c, kind, z, r.now, r.floor, false)
	r.now = back.now
	r.expert += g
	r.a2a += r.now - t0 - g
	r.a2aBytes += ex.bytes + back.bytes
}

// join runs r's step from its schedule's end to the pipeline column's
// norm gather: the boundary sends' join, each group's body booked from
// its issue into the port time left idle (its reduce-scatter under
// ZeRO), and the norm partials' gathers (ZeRO's per group over its
// communicators, the expert shards' over the expert group).
func (w *walker) join(r *rank) {
	r.now = max(r.now, r.sent)
	r.mates = map[int]*mate{}
	t0, dense := r.now, 0
	k, width := coll.RingAllReduce, w.gradWire()
	if w.ZeRO {
		k = coll.RingReduceScatter
	}
	for i, g := range r.groups {
		r.floor, dense = slices.Min(r.issued[i:]), dense+b2i(!g.expert)
		m := w.alike(r, g.c, k, load{n: g.n, width: width}, r.issued[i], min(r.floor, r.issued[i]), true)
		r.now, r.syncBytes = max(r.now, m.now), r.syncBytes+m.bytes
	}
	r.settle(t0)
	r.floor, r.sync = math.Inf(1), r.now-t0
	if w.ZeRO {
		r.now = w.alike(r, r.stage, coll.Dissemination, load{n: float64(dense), width: ints}, r.now, r.floor, false).now
		r.now = w.alike(r, r.dp, coll.Dissemination, load{n: float64(len(r.groups) - dense), width: ints}, r.now, r.floor, false).now
	}
	r.now = w.alike(r, r.ep, coll.Dissemination, load{n: 1, width: ints}, r.now, r.floor, false).now
}

// optimizer runs r's step after the norm as parallel.Engine charges it:
// under ZeRO each group's shard update (12 FLOPs an element) and its
// parameter all-gather, started as updated and joined after the last;
// then the moments' offload out and back (8 bytes an element).
func (w *walker) optimizer(r *rank) {
	var state, done float64
	gw := w.gradWire()
	for _, g := range r.groups {
		if !w.ZeRO {
			state += g.n
			continue
		}
		shard := g.n / float64(g.c.size)
		state += shard
		w.charge(r, 12*shard)
		// The all-gather carries float32 parameters.
		m := w.alike(r, g.c, coll.RingAllGather, load{n: g.n, width: [3]float64{gw[coll.Partial], gw[coll.Partial], gw[coll.Partial]}}, r.now, r.now, true)
		done, r.syncBytes = max(done, m.now), r.syncBytes+m.bytes
	}
	t := r.now
	r.sync += max(0, done-r.now)
	r.now = max(r.now, done)
	r.settle(t)
	if w.OffloadOptState && w.Machine.HostMemBWGiBs > 0 {
		r.offload = 2 * 8 * state / (w.Machine.HostMemBWGiBs * (1 << 30))
		r.now += r.offload
	}
}

// ints is the width of a gathered int.
var ints = [3]float64{8, 8, 8}

// A load sizes the messages of a list: a collective's n elements at
// width[st.Wire] bytes each (a gather's n a member, a gradient
// collective's n in all), or an exchange's blocks of rows rows, a row
// row bytes as float32 and cross bytes at codec width.
type load struct {
	n                float64
	width            [3]float64
	rows, row, cross float64
}

// bytes returns the bytes of one message of step st of a kind k list on
// an n-element vector: an exchange's framing included.
func (z *load) bytes(k coll.Kind, st *coll.Step, n int) float64 {
	if blocks := int(st.Cross + st.Local); blocks > 0 {
		return z.rows*(float64(st.Local)*z.row+float64(st.Cross)*z.cross) + 8*float64(k.Frame(blocks))
	}
	return float64(st.Len(n)) * z.width[st.Wire]
}

// alike prices kind k over c and returns the representative's member:
// its clock at the end (and at an exchange's mark) and the bytes it
// sent. A gather moves z.n elements a member, a gradient collective z.n
// in all, rounded up to a multiple of c's size; its ring form takes the
// rails when c is hierarchical, as mpi chooses. Every member starts at t
// with port floor floor, a body (issued at t) or not: the
// representative on r's ports, the others as r's mates, on their own
// ports and, unless it is a body, from their own clocks. Each mate
// outside the kept members books the sends of the member it is alike
// to, or the representative's when it is not in c: its own alike
// collective.
func (w *walker) alike(r *rank, c *comm, k coll.Kind, z load, t, floor float64, body bool) member {
	if c.size == 1 {
		return member{now: t, mark: t}
	}
	N := 0
	switch k {
	case coll.Direct, coll.Rail:
	case coll.Dissemination:
		N = int(math.Ceil(z.n)) * c.size // a gather's buffer: a block a member
	default:
		N = (int(math.Ceil(z.n)) + c.size - 1) / c.size * c.size
		k = c.g.Algo(k)
	}
	p := c.plan(k, 0, N, true)
	ms := make([]member, p.cls.Reps(c.size))
	for x := range ms {
		ms[x] = member{now: t, floor: floor, ports: &r.ports, sends: len(r.mates) > 0}
		if g := c.base + x*c.stride; x > 0 {
			m := r.mates[g]
			if m == nil {
				// Only the gradient collectives make mates: a gather
				// keeps a member per supernode position, each of which
				// would then book every later collective.
				m = &mate{ports: r.ports.Clone(), end: math.Inf(-1)}
				if r.mates != nil && k != coll.Dissemination {
					r.mates[g] = m
				}
			}
			ms[x].ports = m.ports
			if !body {
				ms[x].now, ms[x].floor = t+m.off, floor+m.off
			}
		}
	}
	w.price(c, k, 0, N, &z, ms, true)
	for x := 1; x < len(ms); x++ {
		if m := r.mates[c.base+x*c.stride]; m != nil {
			if body {
				m.end = max(m.end, ms[x].now)
			} else {
				m.off = ms[x].now - ms[0].now
			}
		}
	}
	for g, mt := range r.mates {
		i, x := (g-c.base)/c.stride, 0
		if g >= c.base && (g-c.base)%c.stride == 0 && i < c.size {
			if x = p.cls.Rep(i); x == i {
				continue // kept
			}
		}
		for _, b := range ms[x].booked {
			mt.ports.Reserve(b.l, b.start, b.d, b.floor)
		}
	}
	return ms[0]
}

// A member is one clock and one set of ports the walk keeps for a
// collective, with the progress of its list.
type member struct {
	now, floor float64 // clock; earliest start of a body still to run
	mark       float64 // its clock at an exchange's mark
	ports      *simnet.Ports
	next       int       // its next step
	arrive     []float64 // the arrivals a receive waits for (plan.slot)
	bytes      float64   // bytes sent
	sends      bool      // record its port bookings in booked
	booked     []booking
}

// A booking is one send's reservation of a port, as Reserve takes it.
type booking struct {
	l               simnet.Level
	start, d, floor float64
}

// planKey names a plan.
type planKey struct {
	k    coll.Kind
	root int
	cls  coll.Classes
}

// A plan is a collective's lists on one communicator, those of one
// member per class, and what each receive waits for: receive step i of
// kept member x waits for waits[x][i], per send step of a kept member
// the last of its messages it takes. Send step i of member x keeps the
// arrivals of its messages need[x][i] (ascending, its last among them)
// from slot slot[x][i].
type plan struct {
	cls   coll.Classes
	steps [][]coll.Step
	waits [][][]wait
	need  [][][]int32
	slot  [][]int32
	slots []int // arrival slots per kept member
}

// A wait is message idx of send step step of kept member rep, whose
// arrival is kept at slot.
type wait struct{ rep, step, idx, slot int32 }

// plan returns c's plan of kind k (root: Bcast and Reduce only) for n
// elements; alike members are kept one per class, others one each.
func (c *comm) plan(k coll.Kind, root, n int, alike bool) *plan {
	var cls coll.Classes
	if alike {
		cls = c.g.Classes(k, n)
	}
	key := planKey{k, root, cls}
	if p := c.plans[key]; p != nil {
		return p
	}
	K, S := cls.Reps(c.size), len(c.g.Groups)
	p := &plan{cls: cls, steps: make([][]coll.Step, K), waits: make([][][]wait, K),
		need: make([][][]int32, K), slot: make([][]int32, K), slots: make([]int, K)}
	// A send of one message is found by its destination and tag, a run's
	// by a supernode it reaches and the tag.
	type msg struct{ peer, tag int32 }
	sends, runs := make([]map[msg][]int32, K), make([]map[msg][]int32, K)
	for x := range p.steps {
		p.steps[x] = c.g.List(k, x, root)
		sends[x], runs[x] = map[msg][]int32{}, map[msg][]int32{}
		p.need[x], p.slot[x] = make([][]int32, len(p.steps[x])), make([]int32, len(p.steps[x]))
		for i, st := range p.steps[x] {
			if st.Op == coll.Send {
				p.need[x][i] = []int32{st.N - 1} // a send keeps its last arrival
			}
			for j := 0; st.Op == coll.Send && j < int((st.N+st.Run-1)/st.Run); j++ {
				m, key := runs[x], msg{int32((c.g.Of[st.Peer] + j) % S), int32(st.Tag)}
				if st.N == 1 {
					m, key.peer = sends[x], st.Peer
				}
				m[key] = append(m[key], int32(i))
			}
		}
	}
	// The k-th receive from q under a tag matches q's k-th send to this
	// member under it: the send of q's representative to this member's
	// image under the relabeling that takes q there. A receive run waits
	// for the last message it takes of each send step.
	seen := map[msg]int32{} // by source and tag, its receives matched so far
	// find returns the send step of member s that sends to img under tag,
	// and the index of that message: a ring's hops to one destination
	// under one tag match in turn, the receiver's from source q().
	find := func(s, img int, tag int32, q func() int) (int32, int) {
		if js := sends[s][msg{int32(img), tag}]; len(js) == 1 {
			return js[0], 0
		} else if len(js) > 1 {
			from := msg{int32(q()), tag}
			seen[from]++
			return js[seen[from]-1], 0
		}
		for _, j := range runs[s][msg{int32(c.g.Of[img]), tag}] {
			if idx := c.g.Index(&p.steps[s][j], img); idx >= 0 {
				return j, idx
			}
		}
		return -1, -1
	}
	for x, steps := range p.steps {
		var ws []wait // every receive's, cut once all are in
		at := make([]int, len(steps)+1)
		clear(seen)
		for i := range steps {
			st, from, h := &steps[i], len(ws), 0
			at[i] = from
			if !receives(st.Op) {
				continue
			}
			cls.Images(c.g, st, x, func(s, img int) {
				j, idx, tag := int32(-1), -1, int32(st.Tag)
				if h++; len(ws) > from && int(ws[len(ws)-1].rep) == s {
					// Most of a run's sources are the last one's send step's.
					j = ws[len(ws)-1].step
					idx = c.g.Index(&p.steps[s][j], img)
				}
				if idx < 0 {
					j, idx = find(s, img, tag, func() int { return c.g.Peer(st, h-1) })
				}
				for a := from; a < len(ws); a++ {
					if ws[a].rep == int32(s) && ws[a].step == j {
						ws[a].idx = max(ws[a].idx, int32(idx))
						return
					}
				}
				ws = append(ws, wait{rep: int32(s), step: j, idx: int32(idx)})
			})
		}
		at[len(steps)] = len(ws)
		p.waits[x] = make([][]wait, len(steps))
		for i := range steps {
			p.waits[x][i] = ws[at[i]:at[i+1]:at[i+1]]
		}
		for _, w := range ws {
			if nd := p.need[w.rep][w.step]; !slices.Contains(nd, w.idx) {
				p.need[w.rep][w.step] = append(nd, w.idx)
			}
		}
	}
	for x := range p.need {
		for i, nd := range p.need[x] {
			slices.Sort(nd)
			p.slot[x][i], p.slots[x] = int32(p.slots[x]), p.slots[x]+len(nd)
		}
	}
	for _, wss := range p.waits {
		for _, ws := range wss {
			for a, w := range ws {
				at, _ := slices.BinarySearch(p.need[w.rep][w.step], w.idx)
				ws[a].slot = p.slot[w.rep][w.step] + int32(at)
			}
		}
	}
	c.plans[key] = p
	return p
}

// receives reports whether a step of op waits for a message.
func receives(op coll.Op) bool {
	return op == coll.Recv || op == coll.RecvAdd || op == coll.Take || op == coll.Hold
}

// price runs kind k's lists over c on the members ms, messages sized by
// z on an n-element vector: ms[x] is comm rank x, one per class when
// alike, and each runs from its clock on its ports. A send step's run is
// charged as mpi charges it (simnet.Run); a receive waits for its
// matching sends' arrivals. It returns the traffic of the whole group.
func (w *walker) price(c *comm, k coll.Kind, root, n int, z *load, ms []member, alike bool) simnet.Traffic {
	p := c.plan(k, root, n, alike)
	per := int64(c.size / len(ms)) // members a kept one stands for
	var t simnet.Traffic
	for x := range ms {
		ms[x].arrive = make([]float64, p.slots[x])
	}
	for moved := true; moved; {
		moved = false
		for x := range ms {
			m, steps := &ms[x], p.steps[x]
		list:
			for ; m.next < len(steps); m.next++ {
				st := &steps[m.next]
				if st.Skip(n) {
					continue
				}
				switch {
				case st.Op == coll.Send:
					l, b, cnt := c.g.Level(x, int(st.Peer)), z.bytes(k, st, n), int(st.N)
					start, floor := m.now, min(m.now, m.floor)
					need, arrive := p.need[x][m.next], m.arrive[p.slot[x][m.next]:]
					if cnt == 1 {
						m.now, arrive[0], _ = w.topo.Send(m.ports, l, b, start, floor, 1)
					} else { // a run: its needed arrivals, then its last
						r, sent := w.topo.Run(m.ports, l, start, floor, 1), 0
						for h, i := range need[:len(need)-1] {
							_, arrive[h], _ = r.Send(float64(int(i)+1-sent) * b)
							sent = int(i) + 1
						}
						m.now, arrive[len(need)-1], _ = r.Last(float64(cnt-sent) * b)
					}
					if m.sends {
						m.booked = append(m.booked, booking{l, start, float64(cnt) * b * w.topo.Beta[l], floor})
					}
					m.bytes += float64(cnt) * b
					t.Msgs[l] += per * int64(cnt)
					t.Bytes[l] += per * int64(cnt) * int64(b)
				case receives(st.Op):
					for _, wt := range p.waits[x][m.next] {
						if ms[wt.rep].next <= int(wt.step) {
							break list // its send has not run yet
						}
						m.now = max(m.now, ms[wt.rep].arrive[wt.slot])
					}
				case st.Op == coll.Mark:
					m.mark = m.now
				}
				moved = true
			}
		}
	}
	for x := range ms {
		if ms[x].next < len(p.steps[x]) {
			panic(fmt.Sprintf("perfmodel: kind %d over %d ranks from %d, stride %d: member %d stuck at step %d of %d",
				k, c.size, c.base, c.stride, x, ms[x].next, len(p.steps[x])))
		}
	}
	return t
}
