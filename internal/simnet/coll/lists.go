package coll

// Kind names a collective algorithm: the step lists List builds.
type Kind uint8

const (
	// RingAllReduce is the bandwidth-optimal ring: RingReduceScatter,
	// then RingAllGather, 2(P-1) hops of n/P elements each way.
	RingAllReduce Kind = iota
	// RingReduceScatter leaves comm rank q holding ring chunk (q+1) mod
	// P reduced (its Shard), rounded once on a 16-bit wire.
	RingReduceScatter
	// RingAllGather circulates every member's Shard to all.
	RingAllGather
	// RailAllReduce is the topology-aware all-reduce. Every member
	// carries a rail: with S supernodes, R the smallest supernode's
	// member count and piece (c, r) the r-th of R equal sub-slices of
	// leader chunk c (chunk c of S), rail r is the S pieces (·, r) and
	// belongs, in each supernode, to the member at position r:
	//
	//	A  local reduce-scatter: every member sends each rail to its
	//	   local owner, who sums the contributions in binomial-tree
	//	   association (tag step 0);
	//	B  R parallel ring reduce-scatters across supernodes, one per
	//	   rail, over the S owners of that rail (tag step 1);
	//	C  the ring all-gather on the same rails (tag step 1);
	//	D  local all-gather: owners send their rail to every local
	//	   member (tag step 2).
	//
	// Every member's uplink carries 1/R of what a single supernode
	// leader would, and each element is still accumulated in ring order
	// over supernodes, starting at its leader chunk, of tree-ordered
	// local sums. On a 16-bit wire phases A, C and D are narrow and B,
	// whose hops carry local sums, is float32 unless every supernode
	// holds one member.
	RailAllReduce
	// RailReduceScatter is phases A and B, then the reslice from rail
	// pieces to Shards (tag step 3): only non-empty overlaps travel, so
	// between equal partitions nothing does. It bridges a supernode
	// with more members than rails (a shrunk world: 4 + 3).
	RailReduceScatter
	// RailAllGather is the reslice from Shards to rail pieces, then
	// phases C and D.
	RailAllGather
	// Dissemination is the all-gather of n/P elements a member (Bruck's
	// algorithm with a barrier's partners), on a buffer whose block j
	// holds the data of member me-j: in round k, with d = 2^k, each
	// member sends its first min(d, P-d) blocks to me+d and receives as
	// many from me-d at block d (tag step k), so after ceil(log2 P)
	// rounds it holds all P.
	Dissemination
	// Bcast is the binomial broadcast from a root: in a space rotated so
	// the root is 0, member v receives from v with its lowest set bit
	// cleared and forwards to v|k for each bit k below it.
	Bcast
	// Reduce is its mirror image onto the root: receive from children,
	// the lowest bit first, then send the partial result to the parent.
	Reduce
	// Direct is the MoE all-to-allv: block (s → d), the rows s sends d,
	// travels in one message (tag step 0). A member sends the other
	// supernodes' members first, in turn from the supernode after its
	// own, each from its own position on, then its own supernode's from
	// the member after it; it receives from its own supernode, marks
	// the end of the local leg and receives from the others. Its own
	// block takes no message.
	Direct
	// Rail is the rail-sharded exchange: rows for d in another supernode
	// leave source supernode j through its member at d's position
	// modulo |j|, d's rail. A member sends each other member q of
	// its supernode one merged leg (tag step 1), its block for q and its
	// blocks for those q forwards for; from the legs it receives it
	// sends each destination it forwards for one rail leg (tag step 2)
	// of every block of its supernode bound there. Then it marks the end
	// of the local leg and receives a rail leg from each other
	// supernode.
	Rail
)

// positional reports whether a relabeling that rotates every
// supernode's positions by a node run maps kind k's lists onto each
// other: the rail lists and the exchanges.
func (k Kind) positional() bool { return k >= RailAllReduce && k <= RailAllGather || k >= Direct }

// Exchange returns the exchange a communicator runs: Rail when hier
// and it spans more than one supernode, Direct otherwise.
func (g *Geometry) Exchange(hier bool) Kind {
	if hier && len(g.Groups) > 1 {
		return Rail
	}
	return Direct
}

// Frame returns how many ints frame an exchange message of kind k
// carrying blocks blocks, besides their meta ints: a Direct message is
// [n, nmeta, meta…], a Rail leg [k, (q, n, nmeta)×k, meta…] with q the
// block's destination on the merged hop and its source on the rail hop.
func (k Kind) Frame(blocks int) int {
	if k == Direct {
		return 2
	}
	return 1 + 3*blocks
}

// List returns comm rank me's steps of kind k; root matters to Bcast
// and Reduce only.
func (g *Geometry) List(k Kind, me, root int) []Step {
	var l list
	p := g.Size()
	switch k {
	case RingAllReduce, RingReduceScatter, RingAllGather:
		id := func(i int) int { return i }
		cut := func(ch int) Cut { return chunk(p, ch) }
		if k != RingAllGather {
			l.ringReduceScatter(me, p, id, cut, 0, true)
		}
		if k != RingReduceScatter {
			l.ringAllGather(me, p, id, cut, 0)
		}
	case RailAllReduce, RailReduceScatter, RailAllGather:
		r := g.rails(me)
		if k != RailAllGather {
			r.reduceScatter(&l)
		}
		if k == RailReduceScatter {
			r.reslice(&l, g, true)
		}
		if k == RailAllGather {
			r.reslice(&l, g, false)
		}
		if k != RailReduceScatter {
			r.allGather(&l)
		}
	case Dissemination:
		for k, d := 0, 1; d < p; k, d = k+1, d<<1 {
			cnt := min(d, p-d)
			l.add(Step{Op: Send, Peer: int32((me + d) % p), Tag: uint16(k), Cut: Cut{Parts: int32(p), Hi: int32(cnt)}})
			l.add(Step{Op: Recv, Peer: int32((me - d + p) % p), Tag: uint16(k), Cut: Cut{Parts: int32(p), Lo: int32(d), Hi: int32(d + cnt)}})
		}
	case Bcast:
		v := (me - root + p) % p
		if v != 0 {
			l.add(Step{Op: Take, Peer: int32((v&(v-1) + root) % p), Cut: chunk(1, 0)})
		}
		for b := 1; b < p && v&b == 0; b <<= 1 {
			if v|b < p {
				l.add(Step{Op: Send, Peer: int32((v | b + root) % p), Cut: chunk(1, 0)})
			}
		}
	case Direct, Rail:
		l.exchange(g, k, me)
	case Reduce:
		v := (me - root + p) % p
		for b := 1; b < p; b <<= 1 {
			if v&b != 0 {
				l.add(Step{Op: Send, Peer: int32((v ^ b + root) % p), Wire: Partial, Cut: chunk(1, 0)})
				break
			}
			if v|b < p {
				l.add(Step{Op: RecvAdd, Peer: int32((v | b + root) % p), Cut: chunk(1, 0)})
			}
		}
	}
	return l.steps
}

type list struct{ steps []Step }

func (l *list) add(s Step) {
	s.N, s.Run = 1, 1
	l.steps = append(l.steps, s)
}

// ringReduceScatter appends the reduce-scatter half of a ring over p
// members, me among them, whose member i is comm rank comm(i), on chunks
// cut(0 … p-1): after hop s a member holds the partial sum of chunk
// me-s over s+1 contributors, so at the end it owns chunk (me+1) mod p
// fully reduced and rounds it. All hops ride one tag, FIFO. The first
// hop carries the member's own contribution when raw, the later ones
// partial sums.
func (l *list) ringReduceScatter(me, p int, comm func(int) int, cut func(int) Cut, tag uint16, raw bool) {
	next, prev := int32(comm((me+1)%p)), int32(comm((me-1+p)%p))
	for s := 0; s < p-1; s++ {
		w := Partial
		if raw && s == 0 {
			w = Raw
		}
		l.add(Step{Op: Send, Peer: next, Tag: tag, Wire: w, Cut: cut((me - s + p) % p)})
		l.add(Step{Op: RecvAdd, Peer: prev, Tag: tag, Cut: cut((me - s - 1 + p) % p)})
	}
	l.add(Step{Op: Round, Cut: cut((me + 1) % p)})
}

// ringAllGather appends the all-gather half: each member enters owning
// chunk (me+1) mod p and circulates chunks until every member holds
// all. Every hop carries finished sums.
func (l *list) ringAllGather(me, p int, comm func(int) int, cut func(int) Cut, tag uint16) {
	next, prev := int32(comm((me+1)%p)), int32(comm((me-1+p)%p))
	for s := 0; s < p-1; s++ {
		l.add(Step{Op: Send, Peer: next, Tag: tag, Wire: Sum, Cut: cut((me + 1 - s + p) % p)})
		l.add(Step{Op: Recv, Peer: prev, Tag: tag, Cut: cut((me - s + p) % p)})
	}
}

// rails is a member's view of the rail schedule.
type rails struct {
	ms     []int // the comm ranks of its supernode
	S, R   int   // supernodes, rails
	j, pos int   // its supernode and position there
	groups [][]int
	owner  bool // it owns rail pos
	leader int  // its supernode's leader chunk, (j+1) mod S
}

func (g *Geometry) rails(me int) rails {
	j, pos := g.Of[me], g.At[me]
	return rails{ms: g.Groups[j], S: len(g.Groups), R: g.R, j: j, pos: pos, groups: g.Groups,
		owner: pos < g.R, leader: (j + 1) % len(g.Groups)}
}

// rail names rail r: piece r of every leader chunk.
func (r *rails) rail(i int) Cut {
	return Cut{Parts: int32(r.S), Lo: Every, Sub: int32(i), Subs: int32(r.R)}
}

// ring runs the rail ring of this member's rail: member i of the ring is
// the owner of the rail in supernode i, chunk ch its piece (ch, pos).
func (r *rails) ring() (func(int) int, func(int) Cut) {
	return func(i int) int { return r.groups[i][r.pos] }, func(ch int) Cut { return sub(r.S, ch, r.pos, r.R) }
}

// reduceScatter appends phases A and B.
func (r *rails) reduceScatter(l *list) {
	// A: sends are staggered so that no owner is every member's first
	// destination.
	for i := 1; i <= r.R; i++ {
		if q := (r.pos + i) % r.R; q != r.pos {
			l.add(Step{Op: Send, Peer: int32(r.ms[q]), Wire: Raw, Cut: r.rail(q)})
		}
	}
	if !r.owner {
		return
	}
	own := r.rail(r.pos)
	for q, m := range r.ms {
		op := Hold
		if q == r.pos {
			op = Stash
		}
		l.add(Step{Op: op, Peer: int32(m), Slot: int32(q), Cut: own})
	}
	l.add(Step{Op: Fold, Slot: int32(len(r.ms)), Cut: own})
	comm, cut := r.ring()
	l.ringReduceScatter(r.j, r.S, comm, cut, 1, len(r.ms) == 1)
}

// allGather appends phases C and D.
func (r *rails) allGather(l *list) {
	if r.owner {
		comm, cut := r.ring()
		l.ringAllGather(r.j, r.S, comm, cut, 1)
		for i := 1; i < len(r.ms); i++ {
			l.add(Step{Op: Send, Peer: int32(r.ms[(r.pos+i)%len(r.ms)]), Tag: 2, Wire: Sum, Cut: r.rail(r.pos)})
		}
	}
	for q := 0; q < r.R; q++ {
		if q != r.pos {
			l.add(Step{Op: Recv, Peer: int32(r.ms[q]), Tag: 2, Cut: r.rail(q)})
		}
	}
}

// reslice appends the redistribution of the supernode's leader chunk
// between the rail pieces (empty beyond the last owner) and the Shards,
// pieces to shards when toShards: member q enters holding from[q] and
// leaves holding to[q]; the overlaps hold finished sums.
func (r *rails) reslice(l *list, g *Geometry, toShards bool) {
	piece := func(q int) Cut {
		if q >= r.R {
			return Cut{Parts: 1} // names nothing
		}
		return sub(r.S, r.leader, q, r.R)
	}
	shard := func(q int) Cut { return g.Shard(r.ms[q], true) }
	from, to := piece, shard
	if !toShards {
		from, to = shard, piece
	}
	L := len(r.ms)
	for i := 1; i < L; i++ {
		q := (r.pos + i) % L
		l.add(Step{Op: Send, Peer: int32(r.ms[q]), Tag: 3, Wire: Sum, Cut: from(r.pos), Clip: to(q)})
	}
	for q, m := range r.ms {
		if q != r.pos {
			l.add(Step{Op: Recv, Peer: int32(m), Tag: 3, Cut: from(q), Clip: to(r.pos)})
		}
	}
}

// exchange appends comm rank me's steps of exchange k (see Direct and
// Rail).
func (l *list) exchange(g *Geometry, k Kind, me int) {
	j, pos := g.Of[me], g.At[me]
	mine := g.Groups[j]
	// own runs op over the other members of me's supernode, from the one
	// after me on, each message carrying one block as float32 and
	// cross(q) at codec width.
	own := func(op Op, tag uint16, cross func(q int) int) {
		for i := 1; i < len(mine); i++ {
			q := mine[(pos+i)%len(mine)]
			l.run(g, me, Step{Op: op, Tag: tag, Peer: int32(q), Cross: int32(cross(q)), Local: 1}, 1)
		}
	}
	// others calls f with the other supernodes, from the one after me's.
	others := func(f func(ms []int)) {
		for i := 1; i < len(g.Groups); i++ {
			f(g.Groups[(j+i)%len(g.Groups)])
		}
	}
	if k == Direct {
		remote := func(op Op) {
			others(func(ms []int) { l.run(g, me, Step{Op: op, Peer: int32(ms[pos%len(ms)]), Cross: 1}, len(ms)) })
		}
		remote(Send)
		own(Send, 0, func(int) int { return 0 })
		own(Recv, 0, func(int) int { return 0 })
		l.add(Step{Op: Mark})
		remote(Recv)
		return
	}
	forwards := make([]int, len(mine)) // per position, the destinations its member forwards for
	others(func(ms []int) {
		for p := range ms {
			forwards[p%len(mine)]++
		}
	})
	own(Send, 1, func(q int) int { return forwards[g.At[q]] })
	own(Recv, 1, func(int) int { return forwards[pos] })
	others(func(ms []int) {
		for p := pos; p < len(ms); p += len(mine) {
			l.run(g, me, Step{Op: Send, Tag: 2, Peer: int32(ms[p]), Cross: int32(len(mine))}, 1)
		}
	})
	l.add(Step{Op: Mark})
	others(func(ms []int) {
		l.run(g, me, Step{Op: Recv, Tag: 2, Peer: int32(ms[pos%len(ms)]), Cross: int32(len(ms))}, 1)
	})
}

// run appends message step s from comm rank me to (from) s.Peer and the
// n-1 members after it in its supernode, at one level, or adds them to
// the last step when it is a run of the same kind at that level: in its
// first supernode after its members, or as the next supernode's at the
// same positions.
func (l *list) run(g *Geometry, me int, s Step, n int) {
	s.N, s.Run = int32(n), int32(n)
	if k := len(l.steps) - 1; k >= 0 {
		t, q := &l.steps[k], int(s.Peer)
		first := g.Groups[g.Of[t.Peer]]
		if t.Op == s.Op && t.Tag == s.Tag && t.Cross == s.Cross && t.Local == s.Local && g.Level(me, int(t.Peer)) == g.Level(me, q) {
			if t.N == t.Run && g.Of[q] == g.Of[t.Peer] && int(t.Run)+n <= len(first) && g.At[q] == (g.At[t.Peer]+int(t.Run))%len(first) {
				t.N, t.Run = t.N+s.N, t.Run+s.N
				return
			}
			if s.N == t.Run && t.N%t.Run == 0 && int(t.N/t.Run) < len(g.Groups) && len(g.Groups[g.Of[q]]) == len(first) && q == g.Peer(t, int(t.N)) {
				t.N += s.N
				return
			}
		}
	}
	l.steps = append(l.steps, s)
}

// Blocks calls f with the source and destination of each block the
// message of exchange step s from comm rank from to comm rank to
// carries, in the order it holds them.
func (g *Geometry) Blocks(s *Step, from, to int, f func(src, dst int)) {
	if s.Tag == 2 { // a rail leg: every block of from's supernode bound for to
		for _, src := range g.Groups[g.Of[from]] {
			f(src, to)
		}
		return
	}
	f(from, to)
	for i := 1; s.Tag == 1 && i < len(g.Groups); i++ { // and those on to's rail
		ms := g.Groups[(g.Of[from]+i)%len(g.Groups)]
		for p := g.At[to]; p < len(ms); p += len(g.Groups[g.Of[from]]) {
			f(from, ms[p])
		}
	}
}
