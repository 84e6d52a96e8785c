package perfmodel

import (
	"math"
	"slices"

	"bagualu/internal/parallel/layout"
	"bagualu/internal/parallel/schedule"
	"bagualu/internal/simnet"
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
// boundary receive waits for the send its neighbour stage booked, any
// other for the representative's own matching send plus α (the ranks of
// a group are alike). Then each stage joins its groups, gathers the
// gradient norm (the pipeline column's across the stages' clocks), runs
// ZeRO's shard updates and all-gathers, the offload and the scalar join.
// What shows is what the walk waits for.

// comm is a communicator seen from comm rank 0, the representative.
type comm struct {
	size, base, stride int    // comm rank i is global rank base + i·stride
	sn                 []int  // members per supernode, in order; sn[0] is the representative's
	peers              [4]int // members at each level from the representative
	// A ring's hops run at its links' mean α and β, each waiting for its
	// neighbour's, and load the port of its slowest link.
	alpha, beta float64
	slow        simnet.Level
}

// hier reports whether mpi takes the topology-aware paths on c
// (mpi.Comm.Hierarchical).
func (c *comm) hier() bool { return len(c.sn) > 1 && c.size >= 4 }

func (c *comm) rank(i int) int { return c.base + i*c.stride }

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
}

// A group is one gradient sync: n elements reduced over c, issued when
// unit at finishes.
type group struct {
	at int
	c  *comm
	n  float64
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
	spec            ModelSpec
	topo            *simnet.Topology
	S, V, M         int
	chunks          []chunk
	rate, rows, row float64 // FLOP/s per rank, rows per micro-batch, bytes a row
	gemm            float64 // one MoE layer's forward expert GEMMs, seconds
	ranks           []*rank
	world           *comm
	arrive          map[[3]int]float64 // boundary arrival by (direction, global chunk, micro-batch)
}

// noUnit reports no unit finished.
const noUnit = math.MinInt

// walk runs one step; ranks[0] is stage 0's representative, the rank
// the simulator's measurement reads.
func (d Deployment) walk(spec ModelSpec) *walker {
	w := &walker{Deployment: d, spec: spec, topo: simnet.New(d.Machine, d.RanksPerNode),
		S: d.PP(), V: d.VPP(), M: d.Micro(), arrive: map[[3]int]float64{}}
	w.rate = d.Machine.NodeFlops(d.Precision) * d.Efficiency / float64(d.RanksPerNode)
	w.rows = float64(d.BatchPerRank * spec.SeqLen)
	w.row = float64(spec.Dim) * bytesPerElem(d.Precision)
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
	for k := 1; k < w.S; k <<= 1 {
		end := make([]float64, w.S)
		for s, r := range w.ranks {
			end[s] = w.send(r, w.topo.LevelOf(r.id, w.ranks[(s+k)%w.S].id), r.now, float64(8*min(k, w.S-k)))
		}
		for s, r := range w.ranks {
			q := (s - k + w.S) % w.S
			r.now = max(end[s], end[q]+w.topo.Alpha[w.topo.LevelOf(w.ranks[q].id, r.id)])
		}
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

// replays reports whether block b replays its forward: RecomputeFraction
// of the blocks, every n-th from block 0.
func (w *walker) replays(b int) bool {
	f := w.RecomputeFraction
	return math.Ceil(float64(b+1)*f) > math.Ceil(float64(b)*f)
}

// comm builds the communicator of size ranks stride apart from base.
func (w *walker) comm(base, size, stride int) *comm {
	c := &comm{size: size, base: base, stride: stride, sn: []int{0}}
	for i := 0; i < size; i++ {
		g := c.rank(i)
		if i > 0 && w.topo.LevelOf(g-stride, g) == simnet.MachineLevel {
			c.sn = append(c.sn, 0)
		}
		c.sn[len(c.sn)-1]++
		c.peers[w.topo.LevelOf(base, g)]++
		l := w.topo.LevelOf(g, c.rank((i+1)%size))
		c.slow = max(c.slow, l)
		c.alpha += w.topo.Alpha[l] / float64(size)
		c.beta += w.beta(l) / float64(size)
	}
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
			ex = group{us[i].ID, r.dp, float64(us[i].Params) / float64(w.ExpertParallel)}
			continue
		}
		dn := group{us[i].ID, r.stage, float64(us[i].Params)}
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
	end, _ := r.ports.Reserve(l, t, bytes*w.beta(l), min(t, r.floor))
	return end
}

// beta is a level's seconds a byte; the bisection thins a rank's
// machine-level link when every rank crosses at once.
func (w *walker) beta(l simnet.Level) float64 {
	if l == simnet.MachineLevel {
		return w.topo.Beta[l] * w.Machine.BisectionOversub
	}
	return w.topo.Beta[l]
}

// boundary starts the send of a micro-batch's activations (dir 0) or
// gradient (dir 1) to global chunk g's stage, booked at issue.
func (w *walker) boundary(r *rank, dir, g, mb int) {
	l := w.topo.LevelOf(r.id, w.ranks[g%w.S].id)
	end := w.send(r, l, r.now, w.rows*w.row)
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
				r.scalars, r.floor = w.gather(r, w.world, r.now, 3), r.now
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
// its rows to come back.
func (w *walker) moe(r *rank, k float64, meta bool, u int) {
	skew := max(w.RouteSkew, 1)
	t0, g := r.now, k*w.gemm*skew
	local, all := w.exchange(r, meta, 1)
	r.now = all + g
	if w.OverlapA2A {
		f := float64(r.ep.sn[0]) / float64(r.ep.size)
		r.now = max(local+f*g, all) + (1-f)*g
	}
	w.issue(r, u)
	_, r.now = w.exchange(r, false, skew)
	r.expert += g
	r.a2a += r.now - t0 - g
}

// exchange books an MoE all-to-all from r's clock, each rank sending
// every peer load× its share of TopK rows a token (a slot id a row when
// meta), and returns when the local leg (self and same-supernode
// sources) and the whole exchange have arrived. The direct exchange
// posts remote chunks first. The hierarchical one (mpi.Exchange) sends
// each other member of the supernode one merged message, its chunk and
// the rows riding its rail at cross width, then from their arrival one
// rail message to each cross destination it serves, carrying its
// supernode's rows for it.
func (w *walker) exchange(r *rank, meta bool, load float64) (local, all float64) {
	c := r.ep
	per := load * w.rows * float64(w.spec.TopK) / float64(c.size)
	width := func(cross bool) float64 { // a row's bytes on the wire
		if cross && w.WireFP16 {
			return float64(w.spec.Dim)*2 + 8*float64(b2i(meta))
		}
		return w.row + 8*float64(b2i(meta))
	}
	hier := w.A2A == A2AHierarchical && c.hier()
	L := float64(c.sn[0])
	served := float64(c.size-c.sn[0]) / L // cross destinations on a rank's rail
	t, local, all := r.now, r.now, r.now
	for _, l := range []simnet.Level{simnet.MachineLevel, simnet.NodeLevel, simnet.SupernodeLevel} {
		n, cross := float64(c.peers[l]), l == simnet.MachineLevel
		if n == 0 || hier && cross {
			continue
		}
		b := n * (per*width(cross) + 16)
		if hier { // the merged message carries the rows riding the peer's rail
			b += n * served * per * width(true)
		}
		r.a2aBytes += b
		t = w.send(r, l, t, b)
		if cross {
			all = t + w.topo.Alpha[l]
		} else {
			local = max(local, t+w.topo.Alpha[l])
		}
	}
	local = max(local, t)
	all = max(all, local)
	if hier {
		b := served * (L*per*width(true) + 16)
		r.a2aBytes += b
		all = w.send(r, simnet.MachineLevel, all, b) + w.topo.Alpha[simnet.MachineLevel]
	}
	return local, all
}

// allReduceSchedule books a gradient collective of n elements over c as
// mpi runs it, on r's ports from t, adds its bytes to r's and returns
// when it ends: the reduce-scatter half when rs, the all-gather half
// when ag. Inside a supernode, or below four ranks, a ring: p-1 hops of
// n/p each way, one α each. Across supernodes AllReduceHier's rails: a
// rail (n/R) to each other member of the supernode, a ring over the
// supernodes on the rank's rail, its all-gather, the rails back. Each
// hop moves its elements at syncWire's widths.
func (w *walker) allReduceSchedule(r *rank, c *comm, t, n float64, rs, ag bool) float64 {
	defer r.body(t)()
	sw := w.syncWire()
	// ring books k hops carrying bytes as one block on link l's port: it
	// ends no sooner than k hops at α and β, nor before its bytes leave.
	ring := func(k int, bytes float64, l simnet.Level, alpha, beta float64) {
		if k > 0 {
			end := w.send(r, l, t, bytes)
			t = max(t+float64(k)*alpha+bytes*beta, end+alpha+bytes/float64(k)*(beta-w.beta(l)))
			r.syncBytes += bytes
		}
	}
	if !c.hier() {
		p, chunk := c.size, n/float64(c.size)
		if rs {
			ring(p-1, chunk*(sw.raw+float64(p-2)*sw.partial), c.slow, c.alpha, c.beta)
		}
		if ag {
			ring(p-1, chunk*float64(p-1)*sw.gather, c.slow, c.alpha, c.beta)
		}
		return t
	}
	S, R, m := len(c.sn), float64(slices.Min(c.sn)), simnet.MachineLevel
	burst := func(width float64) {
		free, arrive := t, t
		for _, l := range []simnet.Level{simnet.NodeLevel, simnet.SupernodeLevel} {
			if k := float64(c.peers[l]); k > 0 {
				free = w.send(r, l, free, k*n/R*width)
				arrive, r.syncBytes = max(arrive, free+w.topo.Alpha[l]), r.syncBytes+k*n/R*width
			}
		}
		t = max(free, arrive)
	}
	chunk := n / R / float64(S)
	if rs {
		burst(sw.raw)
		first := sw.partial
		if c.sn[0] == 1 { // the ring starts from each rank's own contribution
			first = sw.raw
		}
		ring(S-1, chunk*(first+float64(S-2)*sw.partial), m, w.topo.Alpha[m], w.beta(m))
	}
	if ag {
		ring(S-1, chunk*float64(S-1)*sw.gather, m, w.topo.Alpha[m], w.beta(m))
		burst(sw.gather)
	}
	return t
}

// gather books mpi's dissemination all-gather of ints per rank over c
// from t and returns when it ends on the representative: ⌈log₂ p⌉
// rounds, each a send d members ahead and a receive from d behind. Each
// member keeps its own clock, since a round's sender starts it when its
// own last receive arrived, and a slow link's latency reaches the
// representative only along the paths that carry it. When every
// supernode holds as many members, one supernode's clocks are kept: the
// others repeat them.
func (w *walker) gather(r *rank, c *comm, t float64, ints int) float64 {
	defer r.body(t)()
	p, q := c.size, c.size
	if L := c.sn[0]; p%L == 0 && slices.Min(c.sn) == L && slices.Max(c.sn) == L {
		q = L
	}
	at, sent := make([]float64, q), make([]float64, q)
	for i := range at {
		at[i] = t
	}
	for d := 1; d < p; d <<= 1 {
		b := float64(8 * ints * min(d, p-d))
		for i := range at {
			sent[i] = at[i] + b*w.beta(w.topo.LevelOf(c.rank(i), c.rank((i+d)%p)))
		}
		sent[0] = w.send(r, w.topo.LevelOf(c.rank(0), c.rank(d)), at[0], b)
		for i := range at {
			from := (i - d%p + p) % p
			at[i] = max(sent[i], sent[from%q]+w.topo.Alpha[w.topo.LevelOf(c.rank(from), c.rank(i))])
		}
	}
	return at[0]
}

// join runs r's step from its schedule's end to the pipeline column's
// norm gather: the boundary sends' join, each group's body booked from
// its issue into the port time left idle, and the norm partials' gathers
// (ZeRO's per group over its communicators, the expert shards' over the
// expert group).
func (w *walker) join(r *rank) {
	r.now = max(r.now, r.sent)
	t0, dense := r.now, 0
	for i, g := range r.groups {
		r.floor, dense = slices.Min(r.issued[i:]), dense+b2i(g.c == r.stage)
		if g.c.size > 1 {
			r.now = max(r.now, w.allReduceSchedule(r, g.c, r.issued[i], g.n, true, !w.ZeRO))
		}
	}
	r.floor, r.sync = math.Inf(1), r.now-t0
	if w.ZeRO {
		r.now = w.gather(r, r.stage, r.now, dense)
		r.now = w.gather(r, r.dp, r.now, len(r.groups)-dense)
	}
	r.now = w.gather(r, r.ep, r.now, 1)
}

// body holds r's port floor at t, a request body's start, until the
// returned func runs.
func (r *rank) body(t float64) func() {
	floor := r.floor
	r.floor = min(floor, t)
	return func() { r.floor = floor }
}

// optimizer runs r's step after the norm as parallel.Engine charges it:
// under ZeRO each group's shard update (12 FLOPs an element) and its
// parameter all-gather, started as updated and joined after the last;
// then the moments' offload out and back (8 bytes an element).
func (w *walker) optimizer(r *rank) {
	var state, done float64
	for _, g := range r.groups {
		if !w.ZeRO {
			state += g.n
			continue
		}
		shard := g.n / float64(g.c.size)
		state += shard
		w.charge(r, 12*shard)
		if g.c.size > 1 {
			done = max(done, w.allReduceSchedule(r, g.c, r.now, g.n, false, true))
		}
	}
	r.sync += max(0, done-r.now)
	r.now = max(r.now, done)
	if w.OffloadOptState && w.Machine.HostMemBWGiBs > 0 {
		r.offload = 2 * 8 * state / (w.Machine.HostMemBWGiBs * (1 << 30))
		r.now += r.offload
	}
}
