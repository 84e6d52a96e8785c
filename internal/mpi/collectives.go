package mpi

import "fmt"

// ReduceOp combines src into dst elementwise. dst and src have equal
// length.
type ReduceOp func(dst, src []float32)

// OpSum adds src into dst.
func OpSum(dst, src []float32) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// OpMax keeps the elementwise maximum in dst.
func OpMax(dst, src []float32) {
	for i := range dst {
		if src[i] > dst[i] {
			dst[i] = src[i]
		}
	}
}

// Barrier blocks until every rank of the communicator has entered it:
// the zero-length gather, ceil(log2 P) rounds of empty messages.
func (c *Comm) Barrier() {
	gather[int](c, nil)
}

// Bcast distributes root's data to every rank using a binomial tree
// and returns it. Non-root ranks may pass nil.
func (c *Comm) Bcast(root int, data []float32) []float32 {
	p := c.Size()
	// Work in a rotated space where the root is rank 0.
	vrank := (c.rank - root + p) % p
	tag := collTag(c.id, c.nextSeq(), 0)
	if vrank != 0 {
		// Receive from parent: clear the lowest set bit.
		parent := (vrank&(vrank-1) + root) % p
		data = c.recvStep(parent, tag).data
	}
	// Forward to children v | k for each bit k below v's lowest set bit.
	for k := 1; k < p; k <<= 1 {
		if vrank&k != 0 {
			break
		}
		child := vrank | k
		if child < p {
			c.sendStep((child+root)%p, tag, data, nil)
		}
	}
	return data
}

// Reduce combines each rank's data with op, leaving the result on
// root. All ranks receive the reduced slice only on root (others get
// nil). data is not modified.
func (c *Comm) Reduce(root int, data []float32, op ReduceOp) []float32 {
	p := c.Size()
	vrank := (c.rank - root + p) % p
	acc := append([]float32(nil), data...)
	tag := collTag(c.id, c.nextSeq(), 0)
	// Mirror image of the binomial bcast: receive from children
	// first (highest bit down), then send to parent.
	for k := 1; k < p; k <<= 1 {
		if vrank&k != 0 {
			parent := (vrank ^ k + root) % p
			c.sendStep(parent, tag, acc, nil)
			return nil
		}
		child := vrank | k
		if child < p {
			m := c.recvStep((child+root)%p, tag)
			op(acc, m.data)
		}
	}
	return acc
}

// AllReduce combines data across all ranks with op and returns the
// result on every rank. It takes the rail schedule of AllReduceHier,
// which beats the flat ring at every buffer size once the ring would
// cross supernodes (R8), when Hierarchical reports true, and the ring
// otherwise.
func (c *Comm) AllReduce(data []float32, op ReduceOp) []float32 {
	return c.allReduce(data, op, GradWire{})
}

// AllReduceGrads sums data across all ranks on the wire w, by
// AllReduce's algorithm choice: with the zero GradWire it is
// AllReduce(data, OpSum) bit for bit, with a 16-bit one its result
// rounded once to the FP16 grid at w.Scale (see GradWire).
func (c *Comm) AllReduceGrads(data []float32, w GradWire) []float32 {
	return c.allReduce(data, OpSum, w)
}

func (c *Comm) allReduce(data []float32, op ReduceOp, w GradWire) []float32 {
	if c.Hierarchical() {
		return c.allReduceHier(data, op, w)
	}
	return c.allReduceRing(data, op, w)
}

// AllReduceRing implements the bandwidth-optimal ring all-reduce:
// a reduce-scatter pass followed by an all-gather pass, 2(P-1) steps
// moving ~2·n/P bytes each.
func (c *Comm) AllReduceRing(data []float32, op ReduceOp) []float32 {
	return c.allReduceRing(data, op, GradWire{})
}

func (c *Comm) allReduceRing(data []float32, op ReduceOp, w GradWire) []float32 {
	seq := c.nextSeq()
	p := c.Size()
	if p == 1 {
		return append([]float32(nil), data...)
	}
	acc := make([]float32, len(data))
	w.toWire(acc, data)
	bounds := ringBounds(len(acc), p)
	tag := collTag(c.id, seq, 0)
	self := func(r int) int { return r }
	c.ringReduceScatter(tag, c.rank, p, self, acc, bounds, op, w, true)
	c.ringAllGather(tag, c.rank, p, self, acc, bounds, w)
	if w.half() {
		// Only a 16-bit wire may rewrite acc here: a float32 hop sends a
		// view of it, and the next rank may still be reading the last.
		w.fromWire(acc, acc)
	}
	return acc
}

// ringBounds returns the p+1 chunk boundaries of the ring algorithms:
// chunk i covers [bounds[i], bounds[i+1]).
func ringBounds(n, p int) []int {
	bounds := make([]int, p+1)
	for i := 0; i <= p; i++ {
		bounds[i] = i * n / p
	}
	return bounds
}

// ringReduceScatter runs the reduce-scatter half of the ring
// all-reduce in place: after step s this rank holds the partial sum of
// chunk (me-s) reduced over s+1 contributors, so on return it owns the
// fully reduced chunk (me+1)%p. All ring messages under one tag ride
// FIFO per (src,tag) ordering. On a 16-bit wire the first hop goes out
// narrow when acc is this rank's own contribution (raw), the later hops
// carry partial sums at float32, and the owned chunk is rounded once.
func (c *Comm) ringReduceScatter(tag int, me, p int, toComm func(int) int, acc []float32, bounds []int, op ReduceOp, w GradWire, raw bool) {
	next := toComm((me + 1) % p)
	prev := toComm((me - 1 + p) % p)
	for s := 0; s < p-1; s++ {
		sendChunk := (me - s + p) % p
		recvChunk := (me - s - 1 + p) % p
		c.sendSum(next, tag, acc[bounds[sendChunk]:bounds[sendChunk+1]], w, raw && s == 0)
		c.recvSumInto(prev, tag, acc[bounds[recvChunk]:bounds[recvChunk+1]], op)
	}
	own := (me + 1) % p
	w.round(acc[bounds[own]:bounds[own+1]])
}

// ringAllGather runs the all-gather half of the ring all-reduce:
// each rank enters owning chunk (me+1)%p (the reduce-scatter result)
// and circulates chunks until every rank holds all of acc. Every hop
// carries finished sums, so on a 16-bit wire every hop is narrow.
func (c *Comm) ringAllGather(tag int, me, p int, toComm func(int) int, acc []float32, bounds []int, w GradWire) {
	next := toComm((me + 1) % p)
	prev := toComm((me - 1 + p) % p)
	for s := 0; s < p-1; s++ {
		sendChunk := (me + 1 - s + p) % p
		recvChunk := (me - s + p) % p
		c.sendSum(next, tag, acc[bounds[sendChunk]:bounds[sendChunk+1]], w, true)
		c.recvSumInto(prev, tag, acc[bounds[recvChunk]:bounds[recvChunk+1]], nil)
	}
}

// AllReduceHier is the topology-aware all-reduce. Every rank carries a
// rail: with S supernodes (first-appearance order), R the smallest
// supernode's member count and piece (c, r) the r-th of R equal
// sub-slices of leader chunk c = ringBounds(n, S)[c], rail r is the S
// pieces (·, r) and belongs, in each supernode, to the member at
// position r. The schedule is
//
//	A  local reduce-scatter: every member sends each rail to its local
//	   owner, who sums the contributions in binomial-tree association;
//	B  R parallel ring reduce-scatters across supernodes, one per rail,
//	   over the S owners of that rail;
//	C  the ring all-gather on the same rails;
//	D  local all-gather: owners send their rail to every local member,
//	   each of which assembles its own result.
//
// Every rank's uplink carries 1/R of what a single supernode leader
// would, and each element is still accumulated in ring order over
// supernodes, starting at its leader chunk, of tree-ordered local sums.
// ReduceScatterShard's hierarchical path is A B and AllGatherShard's is
// C D. On a 16-bit wire phases A, C and D are narrow and B, whose hops
// carry local sums, is float32 unless every supernode holds one member.
// The returned slice is exclusively owned by the caller.
func (c *Comm) AllReduceHier(data []float32, op ReduceOp) []float32 {
	return c.allReduceHier(data, op, GradWire{})
}

func (c *Comm) allReduceHier(data []float32, op ReduceOp, w GradWire) []float32 {
	seq := c.nextSeq()
	g := c.supernodes()
	lb := ringBounds(len(data), len(g.groups))
	rail := c.railReduceScatter(seq, g, lb, data, op, w)
	if g.owner() {
		c.ringAllGather(collTag(c.id, seq, 1), g.j, len(g.groups), g.peer, rail, g.railBounds(lb, g.pos), w)
	}
	return c.railAllGather(seq, g, lb, rail, len(data), w)
}

// owner reports whether this rank owns a rail (rail g.pos).
func (g *supernodes) owner() bool { return g.pos < g.r }

// peer maps a supernode index to the comm rank owning this rank's rail
// there: the rail ring's toComm.
func (g *supernodes) peer(i int) int { return g.groups[i][g.pos] }

// piece returns the bounds of piece (ch, r): the r-th of g.r equal
// sub-slices of leader chunk ch.
func (g *supernodes) piece(lb []int, ch, r int) Shard {
	return subSlice(lb, ch, r, g.r)
}

// railBounds returns the chunk boundaries of rail r laid out compactly,
// pieces (0, r) … (S-1, r) end to end: what the ring passes take as
// bounds when they run over a rail buffer.
func (g *supernodes) railBounds(lb []int, r int) []int {
	rb := make([]int, len(g.groups)+1)
	for ch := range g.groups {
		rb[ch+1] = rb[ch] + g.piece(lb, ch, r).Len()
	}
	return rb
}

// pack copies rail r out of a full vector into a fresh compact buffer,
// in w's units.
func (g *supernodes) pack(data []float32, lb []int, r int, w GradWire) []float32 {
	n := 0
	for ch := range g.groups {
		n += g.piece(lb, ch, r).Len()
	}
	rail, off := make([]float32, n), 0
	for ch := range g.groups {
		p := g.piece(lb, ch, r)
		w.toWire(rail[off:off+p.Len()], data[p.Lo:p.Hi])
		off += p.Len()
	}
	return rail
}

// unpack copies a compact rail r, in w's units, into its places in a
// full vector.
func (g *supernodes) unpack(out, rail []float32, lb []int, r int, w GradWire) {
	for ch := range g.groups {
		p := g.piece(lb, ch, r)
		w.fromWire(out[p.Lo:p.Hi], rail[:p.Len()])
		rail = rail[p.Len():]
	}
}

// railReduceScatter runs phases A and B. An owner returns its compact
// rail buffer, in which piece ((g.j+1) mod S, g.pos) is fully reduced
// (the rest hold partial sums); other ranks return nil. data is only
// read, and only before the first receive.
func (c *Comm) railReduceScatter(seq int64, g *supernodes, lb []int, data []float32, op ReduceOp, w GradWire) []float32 {
	ms := g.groups[g.j]
	tag := collTag(c.id, seq, 0)
	// A: sends are staggered so that no owner is every member's first
	// destination.
	for i := 1; i <= g.r; i++ {
		if r := (g.pos + i) % g.r; r != g.pos {
			c.sendSum(ms[r], tag, g.pack(data, lb, r, w), w, true)
		}
	}
	if !g.owner() {
		return nil
	}
	v := make([][]float32, len(ms))
	for q, m := range ms {
		if q == g.pos {
			v[q] = g.pack(data, lb, g.pos, w)
		} else {
			v[q] = c.recvSum(m, tag)
		}
	}
	// The association a binomial reduce onto position 0 would produce.
	for k := 1; k < len(ms); k <<= 1 {
		for q := 0; q+k < len(ms); q += 2 * k {
			op(v[q], v[q+k])
		}
	}
	c.ringReduceScatter(collTag(c.id, seq, 1), g.j, len(g.groups), g.peer, v[0], g.railBounds(lb, g.pos), op, w, len(ms) == 1)
	return v[0]
}

// railAllGather runs phase D: owners pass in their complete rail, and
// every rank returns a freshly assembled vector of n elements.
func (c *Comm) railAllGather(seq int64, g *supernodes, lb []int, rail []float32, n int, w GradWire) []float32 {
	ms := g.groups[g.j]
	tag := collTag(c.id, seq, 2)
	if g.owner() {
		for i := 1; i < len(ms); i++ {
			c.sendSum(ms[(g.pos+i)%len(ms)], tag, rail, w, true)
		}
	}
	out := make([]float32, n)
	for r := 0; r < g.r; r++ {
		from := rail
		if r != g.pos {
			from = c.recvSum(ms[r], tag)
		}
		g.unpack(out, from, lb, r, w)
	}
	return out
}

// AllGather concatenates each rank's equal-length data in rank order
// and returns the full slice on every rank (see gather).
func (c *Comm) AllGather(data []float32) []float32 { return gather(c, data) }

// AllGatherInts concatenates equal-length int payloads in rank order.
func (c *Comm) AllGatherInts(xs []int) []int { return gather(c, xs) }

// gather is the dissemination all-gather (Bruck's algorithm with
// Barrier's partners) behind Barrier, AllGather and AllGatherInts. buf
// block j holds the data of rank me-j. In round k, with d = 2^k, each
// rank sends its first min(d, P-d) blocks to me+d and appends as many
// from me-d at block d, so after ceil(log2 P) rounds it holds all P;
// the blocks are then laid out in rank order. Every rank moves n(P-1)
// elements in ceil(log2 P) messages, against the ring's P-1, and the
// callers pass a handful of elements each, so no size rule picks
// another algorithm. A round sends a view of blocks no later write
// touches.
func gather[T float32 | int](c *Comm, xs []T) []T {
	seq := c.nextSeq()
	p, n, me := c.Size(), len(xs), c.rank
	buf := make([]T, n*p)
	copy(buf, xs)
	for k, d := 0, 1; d < p; k, d = k+1, d<<1 {
		cnt := min(d, p-d)
		tag := collTag(c.id, seq, k)
		blk := any(buf[:cnt*n])
		data, _ := blk.([]float32)
		ints, _ := blk.([]int)
		c.sendStep((me+d)%p, tag, data, ints)
		m := c.recvStep((me-d+p)%p, tag)
		got, ok := any(m.data).([]T)
		if !ok {
			got = any(m.ints).([]T)
		}
		if len(got) != cnt*n {
			panic(fmt.Sprintf("mpi: gather length mismatch: %d vs %d", len(got), cnt*n))
		}
		copy(buf[d*n:], got)
	}
	out := make([]T, n*p)
	for j := 0; j < p; j++ {
		r := (me - j + p) % p
		copy(out[r*n:(r+1)*n], buf[j*n:(j+1)*n])
	}
	return out
}
