package mpi

import "fmt"

// Shard is a half-open range [Lo, Hi) of flat element offsets owned by
// one rank of a communicator after a sharded reduce-scatter.
type Shard struct {
	Lo, Hi int
}

// Len returns the number of elements in the shard.
func (s Shard) Len() int { return s.Hi - s.Lo }

// ShardBounds returns, for a flat vector of n elements, the ownership
// range of every comm rank under ReduceScatterShard. The layout is a
// pure function of the communicator's topology and n, so every rank
// (and offline tools like checkpoint restore) can compute the full map
// without communication. Ranges are disjoint and cover [0, n).
//
// Ring layout (Hierarchical false): rank r owns ring chunk (r+1) mod P
// — the chunk the reduce-scatter half of the ring all-reduce leaves
// fully reduced on rank r.
//
// Hierarchical layout (Hierarchical true, matching AllReduce's
// algorithm choice): group j of Supernodes owns leader chunk (j+1) mod S of
// ringBounds(n, S) — the chunk the cross-supernode rail rings leave
// fully reduced there — split equally among the supernode's members by
// member position. With equal supernodes that split IS the rail
// schedule's pieces (see AllReduceHier), so a rail owner's reduced
// piece is its shard as it stands.
func (c *Comm) ShardBounds(n int) []Shard {
	p := c.Size()
	out := make([]Shard, p)
	if p == 1 {
		out[0] = Shard{0, n}
		return out
	}
	if !c.Hierarchical() {
		bounds := ringBounds(n, p)
		for r := 0; r < p; r++ {
			ch := (r + 1) % p
			out[r] = Shard{bounds[ch], bounds[ch+1]}
		}
		return out
	}
	g := c.supernodes()
	S := len(g.groups)
	lb := ringBounds(n, S)
	for j, ms := range g.groups {
		for q, r := range ms {
			out[r] = subSlice(lb, (j+1)%S, q, len(ms))
		}
	}
	return out
}

// subSlice returns the q-th of k equal sub-slices of chunk ch of the
// chunk boundaries lb.
func subSlice(lb []int, ch, q, k int) Shard {
	lo, w := lb[ch], lb[ch+1]-lb[ch]
	return Shard{lo + q*w/k, lo + (q+1)*w/k}
}

// MyShard returns this rank's ShardBounds entry.
func (c *Comm) MyShard(n int) Shard { return c.ShardBounds(n)[c.rank] }

// ReduceScatterShard sums data elementwise across all ranks on the wire
// w and returns only this rank's owned range (per ShardBounds) of the
// result, bitwise identical to AllReduceGrads(data, w)[s.Lo:s.Hi]: the
// ring path IS the reduce-scatter half of the ring all-reduce, and the
// hierarchical path IS phases A and B of AllReduceHier's rail schedule,
// so reduction order — and therefore float rounding, the owner's one
// rounding on a 16-bit wire included — matches exactly.
//
// data is copied before any send is posted, so callers may recycle it
// (e.g. into the tensor pool) as soon as the call returns. The
// returned slice is freshly allocated and exclusively owned.
func (c *Comm) ReduceScatterShard(data []float32, w GradWire) ([]float32, Shard) {
	return c.reduceScatterShard(data, OpSum, w)
}

func (c *Comm) reduceScatterShard(data []float32, op ReduceOp, w GradWire) ([]float32, Shard) {
	seq := c.nextSeq()
	p := c.Size()
	if p == 1 {
		return append([]float32(nil), data...), Shard{0, len(data)}
	}
	if c.Hierarchical() {
		return c.reduceScatterShardHier(seq, data, op, w)
	}
	acc := make([]float32, len(data))
	w.toWire(acc, data)
	bounds := ringBounds(len(acc), p)
	tag := collTag(c.id, seq, 0)
	c.ringReduceScatter(tag, c.rank, p, func(r int) int { return r }, acc, bounds, op, w, true)
	ch := (c.rank + 1) % p
	s := Shard{bounds[ch], bounds[ch+1]}
	shard := make([]float32, s.Len())
	w.fromWire(shard, acc[s.Lo:s.Hi])
	return shard, s
}

// reduceScatterShardHier is phases A and B of the rail schedule (see
// AllReduceHier): afterwards owner r of supernode j holds piece
// ((j+1) mod S, r) fully reduced, and the supernode's pieces together
// are the leader chunk ShardBounds assigns it. Inter-supernode bytes
// equal the reduce-scatter half of AllReduceHier exactly, and so do the
// local ones unless the supernode has more members than rails.
func (c *Comm) reduceScatterShardHier(seq int64, data []float32, op ReduceOp, w GradWire) ([]float32, Shard) {
	g := c.supernodes()
	lb := ringBounds(len(data), len(g.groups))
	rail := c.railReduceScatter(seq, g, lb, data, op, w)
	pieces, shards := g.localSplits(lb)
	var piece []float32
	if g.owner() {
		rb := g.railBounds(lb, g.pos)
		ch := (g.j + 1) % len(g.groups)
		piece = rail[rb[ch]:rb[ch+1]]
	}
	shard := c.reslice(seq, g, pieces, shards, piece, w)
	w.fromWire(shard, shard)
	return shard, shards[g.pos]
}

// localSplits returns the two partitions of this supernode's leader
// chunk, both indexed by member position: the rail pieces (empty beyond
// the last rail owner) and ShardBounds' per-member ranges. They
// coincide unless the supernode has more members than rails.
func (g *supernodes) localSplits(lb []int) (pieces, shards []Shard) {
	L, ch := len(g.groups[g.j]), (g.j+1)%len(g.groups)
	pieces, shards = make([]Shard, L), make([]Shard, L)
	for q := range shards {
		if q < g.r {
			pieces[q] = g.piece(lb, ch, q)
		}
		shards[q] = subSlice(lb, ch, q, L)
	}
	return pieces, shards
}

// reslice redistributes the supernode's leader chunk among its members:
// member q enters holding range from[q] (this rank's in src) and leaves
// holding to[q], returned freshly allocated. Only non-empty overlaps
// travel, so between equal partitions nothing does; this is the bridge
// between rail pieces and ShardBounds in a supernode with more members
// than rails (a shrunk world: 4 + 3). The ranges hold finished sums, so
// on a 16-bit wire they travel narrow.
func (c *Comm) reslice(seq int64, g *supernodes, from, to []Shard, src []float32, w GradWire) []float32 {
	ms := g.groups[g.j]
	tag := collTag(c.id, seq, 3)
	have, want := from[g.pos], to[g.pos]
	for i := 1; i < len(ms); i++ {
		q := (g.pos + i) % len(ms)
		if o := overlap(have, to[q]); o.Len() > 0 {
			c.sendSum(ms[q], tag, src[o.Lo-have.Lo:o.Hi-have.Lo], w, true)
		}
	}
	dst := make([]float32, want.Len())
	for q, m := range ms {
		o := overlap(from[q], want)
		if o.Len() <= 0 {
			continue
		}
		if q == g.pos {
			copy(dst[o.Lo-want.Lo:], src[o.Lo-have.Lo:o.Hi-have.Lo])
		} else {
			c.recvSumInto(m, tag, dst[o.Lo-want.Lo:o.Hi-want.Lo], nil)
		}
	}
	return dst
}

// overlap intersects two ranges; the result has Len() <= 0 when they
// are disjoint.
func overlap(a, b Shard) Shard {
	return Shard{max(a.Lo, b.Lo), min(a.Hi, b.Hi)}
}

// AllGatherShard is the inverse of ReduceScatterShard: every rank
// contributes its owned range (len(shard) must equal its ShardBounds
// length for a vector of n elements) and receives the assembled full
// vector. Combined with a local update of the owned range, it
// completes the sharded-optimizer schedule
// reduce-scatter → shard update → all-gather with the same total bytes
// as the all-reduce AllReduce would have picked, on either path.
//
// The returned slice is freshly allocated and exclusively owned, and
// the shard argument is safe to recycle once the call returns.
func (c *Comm) AllGatherShard(shard []float32, n int) []float32 {
	seq := c.nextSeq()
	p := c.Size()
	my := c.MyShard(n)
	if len(shard) != my.Len() {
		panic(fmt.Sprintf("mpi: AllGatherShard rank %d: shard len %d != owned %d of n=%d", c.rank, len(shard), my.Len(), n))
	}
	if p == 1 {
		return append([]float32(nil), shard...)
	}
	if c.Hierarchical() {
		return c.allGatherShardHier(seq, shard, n)
	}
	out := make([]float32, n)
	copy(out[my.Lo:my.Hi], shard)
	tag := collTag(c.id, seq, 0)
	c.ringAllGather(tag, c.rank, p, func(r int) int { return r }, out, ringBounds(n, p), GradWire{})
	return out
}

// allGatherShardHier is phases C and D of the rail schedule (see
// AllReduceHier): each owner places its piece of the supernode's leader
// chunk in an otherwise empty rail, the rail rings all-gather across
// supernodes, and owners hand their rails to every local member.
func (c *Comm) allGatherShardHier(seq int64, shard []float32, n int) []float32 {
	g := c.supernodes()
	S := len(g.groups)
	lb := ringBounds(n, S)
	pieces, shards := g.localSplits(lb)
	piece := c.reslice(seq, g, shards, pieces, shard, GradWire{})
	var rail []float32
	if g.owner() {
		rb := g.railBounds(lb, g.pos)
		rail = make([]float32, rb[S])
		copy(rail[rb[(g.j+1)%S]:], piece)
		c.ringAllGather(collTag(c.id, seq, 1), g.j, S, g.peer, rail, rb, GradWire{})
	}
	return c.railAllGather(seq, g, lb, rail, n, GradWire{})
}
