// Package coll holds the collective algorithms of the simulated machine
// as data. For a communicator's supernode geometry it builds each
// member's step list for the gradient collectives (the ring and rail
// all-reduce, their reduce-scatter and all-gather halves, the reslice
// between rail pieces and shards) and for the dissemination gather and
// the binomial Bcast and Reduce trees. The mpi runtime executes a list on
// real buffers; the analytic step walk (internal/perfmodel) prices the
// same list on simnet's clocks and ports. Each algorithm is written
// once, here.
//
// A list depends only on the geometry: a step names its elements by a
// Cut, resolved against the vector's length when the list runs, so a
// communicator builds each list once.
package coll

import "bagualu/internal/simnet"

// Op is what a step does.
type Op uint8

const (
	// Send sends the step's elements to Peer: one message, the cut's
	// ranges end to end.
	Send Op = iota
	// Recv receives the elements from Peer, overwriting them.
	Recv
	// RecvAdd receives the elements from Peer and combines them into
	// the vector with the collective's reduce operation.
	RecvAdd
	// Take receives the whole vector from Peer and adopts the payload as
	// the vector (Bcast: a non-root does not know the length).
	Take
	// Hold receives the elements from Peer into slot Slot.
	Hold
	// Stash copies this member's own elements into slot Slot.
	Stash
	// Fold combines slots 0 … Slot-1 in binomial-tree association (the
	// association a binomial reduce onto slot 0 produces) and writes the
	// result over the step's elements.
	Fold
	// Round rounds the step's elements, a finished sum, to the wire's
	// 16-bit grid: the owner's one rounding.
	Round
	// Mark ends an exchange's local leg (see Direct).
	Mark
)

// Wire is what a sent element carries, which decides its width on a
// 16-bit gradient wire: one member's own contribution (Raw) or a
// finished value (Sum) travels narrow, a partial sum at float32.
type Wire uint8

const (
	Raw Wire = iota
	Partial
	Sum
)

// Every, as a sub-sliced Cut's Lo, names that sub-slice of every chunk.
const Every = -1

// A Cut names elements of an n-element vector without n. With b the
// chunk bounds b[i] = i·n/Parts it names [b[Lo], b[Hi]); with Subs > 0,
// sub-slice Sub of Subs equal sub-slices of chunk Lo, or, with Lo =
// Every, that sub-slice of every chunk in chunk order (a rail).
type Cut struct{ Parts, Lo, Hi, Sub, Subs int32 }

// chunk names chunk ch of parts.
func chunk(parts, ch int) Cut { return Cut{Parts: int32(parts), Lo: int32(ch), Hi: int32(ch + 1)} }

// sub names sub-slice sub of subs of chunk ch of parts.
func sub(parts, ch, sub, subs int) Cut {
	return Cut{Parts: int32(parts), Lo: int32(ch), Hi: int32(ch + 1), Sub: int32(sub), Subs: int32(subs)}
}

// bound returns chunk i's first element: i·n/parts.
func bound(n, parts, i int) int { return i * n / parts }

// Pieces returns how many ranges c names.
func (c Cut) Pieces() int {
	if c.Lo == Every {
		return int(c.Parts)
	}
	return 1
}

// Piece returns range i of c for an n-element vector.
func (c Cut) Piece(n, i int) (lo, hi int) {
	p := int(c.Parts)
	if c.Subs == 0 {
		return bound(n, p, int(c.Lo)), bound(n, p, int(c.Hi))
	}
	ch := int(c.Lo)
	if c.Lo == Every {
		ch = i
	}
	lo, w := bound(n, p, ch), bound(n, p, ch+1)-bound(n, p, ch)
	return lo + int(c.Sub)*w/int(c.Subs), lo + int(c.Sub+1)*w/int(c.Subs)
}

// Len returns how many elements c names of an n-element vector.
func (c Cut) Len(n int) int {
	if c.Lo == Every && n%(int(c.Parts)*int(c.Subs)) == 0 {
		return n / int(c.Subs) // equal pieces: no walk over the chunks
	}
	t := 0
	for i := 0; i < c.Pieces(); i++ {
		lo, hi := c.Piece(n, i)
		t += hi - lo
	}
	return t
}

// A Step is one thing a member does in a collective: a message to or
// from Peer (a comm rank) under tag step Tag, or a local step. Its
// elements are Cut, intersected with Clip when Clip names any: such a
// step moves only a non-empty intersection, and both ends skip it
// otherwise.
//
// An exchange's Send and Recv steps are runs of N messages: to (from)
// Run consecutive members of a supernode by position from Peer on, then
// the same positions of each supernode after it (Geometry.Peer). Each
// carries Cross blocks at codec width and Local ones as float32
// (Geometry.Blocks). For every other step N and Run are 1.
type Step struct {
	Op           Op
	Wire         Wire
	Tag          uint16
	Slot         int32
	Peer         int32
	Cut          Cut
	Clip         Cut
	N, Run       int32
	Cross, Local int32
}

// Piece returns range i of the step's elements for an n-element vector.
func (s *Step) Piece(n, i int) (lo, hi int) {
	lo, hi = s.Cut.Piece(n, i)
	if s.Clip.Parts != 0 {
		clo, chi := s.Clip.Piece(n, 0)
		lo, hi = max(lo, clo), min(hi, chi)
	}
	return lo, hi
}

// Len returns how many elements the step moves, 0 for a clipped step
// that moves nothing.
func (s *Step) Len(n int) int {
	if s.Clip.Parts == 0 {
		return s.Cut.Len(n)
	}
	lo, hi := s.Piece(n, 0)
	return max(0, hi-lo)
}

// Skip reports whether the step is a clipped one that moves nothing.
func (s *Step) Skip(n int) bool { return s.Clip.Parts != 0 && s.Len(n) == 0 }

// Geometry is a communicator's supernode grouping: the one place comm
// ranks are grouped by supernode and by rail, a member's position in its
// supernode, and the level between two members.
type Geometry struct {
	Groups [][]int // comm ranks per supernode, ascending; supernodes in first-appearance order
	Of     []int   // comm rank -> index into Groups
	At     []int   // comm rank -> its position in Groups[Of[q]]
	R      int     // rails: the smallest supernode's member count
	node   []int   // comm rank -> node id
	period int     // see Classes; 0 when the geometry is not regular
}

// NewGeometry groups the size ranks of a communicator whose comm rank q
// is global rank global(q) on t.
func NewGeometry(t *simnet.Topology, size int, global func(q int) int) *Geometry {
	g := &Geometry{Of: make([]int, size), At: make([]int, size), node: make([]int, size)}
	idx := map[int]int{} // supernode id -> index in Groups
	last, j := -1, 0
	for q := 0; q < size; q++ {
		gr := global(q)
		g.node[q] = t.Node(gr)
		if sn := t.Supernode(gr); sn != last {
			var ok bool
			if j, ok = idx[sn]; !ok {
				j = len(g.Groups)
				idx[sn] = j
				g.Groups = append(g.Groups, nil)
			}
			last = sn
		}
		g.Of[q], g.At[q] = j, len(g.Groups[j])
		g.Groups[j] = append(g.Groups[j], q)
	}
	g.R = size
	for _, ms := range g.Groups {
		g.R = min(g.R, len(ms))
	}
	g.period = g.regular()
	return g
}

// Size returns the communicator's size.
func (g *Geometry) Size() int { return len(g.Of) }

// Hierarchical reports whether the communicator's collectives take their
// topology-aware paths: it spans more than one supernode and has at
// least 4 ranks.
func (g *Geometry) Hierarchical() bool { return len(g.Groups) > 1 && g.Size() >= 4 }

// Algo returns the form of ring kind k (RingAllReduce and its halves)
// the communicator runs: its rail form when Hierarchical, k otherwise.
func (g *Geometry) Algo(k Kind) Kind {
	if g.Hierarchical() && int(k) < len(railOf) {
		return railOf[k]
	}
	return k
}

var railOf = [...]Kind{RingAllReduce: RailAllReduce, RingReduceScatter: RailReduceScatter, RingAllGather: RailAllGather}

// Peer returns the comm rank of step s's message i (see Step).
func (g *Geometry) Peer(s *Step, i int) int {
	run := int(s.Run)
	ms := g.Groups[(g.Of[s.Peer]+i/run)%len(g.Groups)]
	return ms[(g.At[s.Peer]+i%run)%len(ms)]
}

// Index returns which of step s's messages goes to (comes from) comm
// rank q, -1 for none.
func (g *Geometry) Index(s *Step, q int) int {
	S, L, run := len(g.Groups), len(g.Groups[g.Of[q]]), int(s.Run)
	dj, dp := wrap(g.Of[q]-g.Of[s.Peer], S), wrap(g.At[q]-g.At[s.Peer], L)
	if i := dj*run + dp; dp < run && i < int(s.N) {
		return i
	}
	return -1
}

// Level returns the level of the path between comm ranks a and b.
func (g *Geometry) Level(a, b int) simnet.Level {
	switch {
	case a == b:
		return simnet.SelfLevel
	case g.node[a] == g.node[b]:
		return simnet.NodeLevel
	case g.Of[a] == g.Of[b]:
		return simnet.SupernodeLevel
	default:
		return simnet.MachineLevel
	}
}

// Shard names comm rank q's range under the sharded reduce-scatter. On
// the ring (hier false) it is ring chunk (q+1) mod P, the chunk the
// ring's reduce-scatter leaves reduced on q. On the rails, supernode j
// owns leader chunk (j+1) mod S, the chunk the rail rings leave reduced
// there, split equally among its members by position; with equal
// supernodes that split is the rail pieces.
func (g *Geometry) Shard(q int, hier bool) Cut {
	if !hier {
		return chunk(g.Size(), (q+1)%g.Size())
	}
	S, j := len(g.Groups), g.Of[q]
	return sub(S, (j+1)%S, g.At[q], len(g.Groups[j]))
}

// regular returns the node period m of a regular geometry and 0 for any
// other: every supernode holds L members, comm rank q is position q mod
// L of supernode q / L, and in every supernode positions pos and pos'
// share a node exactly when pos/m == pos'/m, node ids ascending.
func (g *Geometry) regular() int {
	L := len(g.Groups[0])
	if g.Size()%L != 0 {
		return 0
	}
	for q := range g.Of {
		if g.Of[q] != q/L || g.At[q] != q%L {
			return 0
		}
	}
	m := 1
	for m < L && g.node[m] == g.node[0] {
		m++
	}
	if L%m != 0 {
		return 0
	}
	for q := range g.node {
		pos := q % L
		if pos%m != 0 && g.node[q] != g.node[q-1] || pos%m == 0 && pos > 0 && g.node[q] <= g.node[q-1] {
			return 0
		}
	}
	return m
}

// Classes partitions a communicator's members into those whose lists of
// one kind run alike: a relabeling of the members that keeps every
// level maps one member's list onto the other's, peers, chunk lengths
// and order of sends alike (the receives of a run may come in another
// order, which no clock can tell). Members 0 … Reps-1 represent the
// classes. The zero Classes keeps every member.
type Classes struct{ l, s, m int }

// Classes returns the classes of kind k's lists on an n-element vector.
// On a regular geometry of S supernodes of L members with node runs of
// m, shifting the supernodes is such a relabeling, and so is rotating
// every supernode's positions by m for the rail lists and the
// exchanges, and for any list when S is 1 (a shift of the group). The
// chunks must then be equal: n a multiple of the communicator's size
// (an exchange's blocks are equal when the walk prices them; it passes
// 0). The trees have a root and no classes.
func (g *Geometry) Classes(k Kind, n int) Classes {
	m, L, S := g.period, len(g.Groups[0]), len(g.Groups)
	if m == 0 || k == Bcast || k == Reduce || k != Dissemination && n%g.Size() != 0 {
		return Classes{}
	}
	if S > 1 && !k.positional() {
		m = L
	}
	return Classes{l: L, s: S, m: m}
}

// Reps returns how many members of a p-member communicator represent
// the classes.
func (c Classes) Reps(p int) int {
	if c.m == 0 {
		return p
	}
	return c.m
}

// Rep returns the member that represents comm rank q's class.
func (c Classes) Rep(q int) int {
	if c.m == 0 {
		return q
	}
	return q % c.l % c.m
}

// Images calls f, for each peer q of step s in turn, with Rep(q) and the
// image of comm rank x under the relabeling that takes q to Rep(q): the
// member, and its peer, whose message x's message from (to) q is.
func (c Classes) Images(g *Geometry, s *Step, x int, f func(rep, img int)) {
	if c.m == 0 {
		for i := range int(s.N) {
			f(g.Peer(s, i), x)
		}
		return
	}
	// A regular geometry: comm rank q is position q mod l of supernode
	// q / l. The run is walked without dividing.
	jx, px, a := x/c.l, x%c.l, g.At[s.Peer]
	j, p, r, k := g.Of[s.Peer], a, a%c.m, 0
	for range s.N {
		f(r, wrap(jx-j, c.s)*c.l+wrap(px-p+r, c.l))
		if p, r, k = wrap(p+1, c.l), r+1, k+1; r == c.m {
			r = 0
		}
		if k == int(s.Run) {
			j, p, r, k = wrap(j+1, c.s), a, a%c.m, 0
		}
	}
}

// wrap returns v modulo n for v in [-n, 2n).
func wrap(v, n int) int {
	switch {
	case v < 0:
		return v + n
	case v >= n:
		return v - n
	}
	return v
}
