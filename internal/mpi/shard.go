package mpi

import (
	"fmt"

	"bagualu/internal/simnet/coll"
)

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
// algorithm choice): group j of Supernodes owns leader chunk (j+1) mod S
// of the S ring chunks — the chunk the cross-supernode rail rings leave
// fully reduced there — split equally among the supernode's members by
// member position. With equal supernodes that split IS the rail
// schedule's pieces (see coll.RailAllReduce), so a rail owner's reduced
// piece is its shard as it stands.
func (c *Comm) ShardBounds(n int) []Shard {
	g, hier := c.geometry(), c.Hierarchical()
	out := make([]Shard, c.Size())
	for r := range out {
		out[r].Lo, out[r].Hi = g.Shard(r, hier).Piece(n, 0)
	}
	return out
}

// MyShard returns this rank's ShardBounds entry.
func (c *Comm) MyShard(n int) Shard {
	lo, hi := c.geometry().Shard(c.rank, c.Hierarchical()).Piece(n, 0)
	return Shard{lo, hi}
}

// ReduceScatterShard sums data elementwise across all ranks on the wire
// w and returns only this rank's owned range (per ShardBounds) of the
// result, bitwise identical to AllReduceGrads(data, w)[s.Lo:s.Hi]: the
// ring path IS the reduce-scatter half of the ring all-reduce, and the
// hierarchical path IS phases A and B of AllReduceHier's rail schedule
// (then the reslice to the shards, coll.RailReduceScatter), so
// reduction order — and therefore float rounding, the owner's one
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
	if c.Size() == 1 {
		return append([]float32(nil), data...), Shard{0, len(data)}
	}
	acc := make([]float32, len(data))
	w.toWire(acc, data)
	c.collective(seq, c.list(c.geometry().Algo(coll.RingReduceScatter), 0), acc, nil, w, op)
	s := c.MyShard(len(data))
	shard := make([]float32, s.Len())
	w.fromWire(shard, acc[s.Lo:s.Hi])
	return shard, s
}

// AllGatherShard is the inverse of ReduceScatterShard: every rank
// contributes its owned range (len(shard) must equal its ShardBounds
// length for a vector of n elements) and receives the assembled full
// vector. Combined with a local update of the owned range, it
// completes the sharded-optimizer schedule
// reduce-scatter → shard update → all-gather with the same total bytes
// as the all-reduce AllReduce would have picked, on either path: the
// ring's all-gather half, or the reslice to the rail pieces and phases
// C and D of the rail schedule (coll.RailAllGather).
//
// The returned slice is freshly allocated and exclusively owned, and
// the shard argument is safe to recycle once the call returns.
func (c *Comm) AllGatherShard(shard []float32, n int) []float32 {
	seq := c.nextSeq()
	my := c.MyShard(n)
	if len(shard) != my.Len() {
		panic(fmt.Sprintf("mpi: AllGatherShard rank %d: shard len %d != owned %d of n=%d", c.rank, len(shard), my.Len(), n))
	}
	if c.Size() == 1 {
		return append([]float32(nil), shard...)
	}
	out := make([]float32, n)
	copy(out[my.Lo:my.Hi], shard)
	return c.collective(seq, c.list(c.geometry().Algo(coll.RingAllGather), 0), out, nil, GradWire{}, nil)
}
