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
// Ring layout (single supernode or size < 4): rank r owns ring chunk
// (r+1) mod P — the chunk the reduce-scatter half of the ring
// all-reduce leaves fully reduced on rank r.
//
// Hierarchical layout (the communicator spans supernodes and has at
// least 4 ranks, matching AllReduce's algorithm choice): supernode
// leaders in first-appearance order run the leader ring, so leader j
// of L owns leader chunk (j+1) mod L; that chunk is then split equally
// among the supernode's members by member position.
func (c *Comm) ShardBounds(n int) []Shard {
	p := c.Size()
	out := make([]Shard, p)
	if p == 1 {
		out[0] = Shard{0, n}
		return out
	}
	if !(c.spansSupernodes() && p >= 4) {
		bounds := ringBounds(n, p)
		for r := 0; r < p; r++ {
			ch := (r + 1) % p
			out[r] = Shard{bounds[ch], bounds[ch+1]}
		}
		return out
	}
	t := c.Topology()
	var snOrder []int            // supernode ids in first-appearance order
	snMembers := map[int][]int{} // supernode id -> comm ranks, ascending
	for r := 0; r < p; r++ {
		sn := t.Supernode(c.group[r])
		if _, ok := snMembers[sn]; !ok {
			snOrder = append(snOrder, sn)
		}
		snMembers[sn] = append(snMembers[sn], r)
	}
	L := len(snOrder)
	lb := ringBounds(n, L)
	for j, sn := range snOrder {
		lo, hi := lb[(j+1)%L], lb[(j+1)%L+1]
		ms := snMembers[sn]
		for q, r := range ms {
			out[r] = Shard{
				Lo: lo + q*(hi-lo)/len(ms),
				Hi: lo + (q+1)*(hi-lo)/len(ms),
			}
		}
	}
	return out
}

// MyShard returns this rank's ShardBounds entry.
func (c *Comm) MyShard(n int) Shard { return c.ShardBounds(n)[c.rank] }

// ReduceScatterShard reduces data elementwise across all ranks and
// returns only this rank's owned range (per ShardBounds) of the
// result, bitwise identical to AllReduce(data, op)[s.Lo:s.Hi]: the
// ring path IS the reduce-scatter half of the ring all-reduce, and the
// hierarchical path reuses the local-reduce + leader-ring schedule of
// AllReduceHier, so reduction order — and therefore float rounding —
// matches exactly.
//
// data is copied before any send is posted, so callers may recycle it
// (e.g. into the tensor pool) as soon as the call returns. The
// returned slice is freshly allocated and exclusively owned.
func (c *Comm) ReduceScatterShard(data []float32, op ReduceOp) ([]float32, Shard) {
	seq := c.nextSeq()
	p := c.Size()
	if p == 1 {
		return append([]float32(nil), data...), Shard{0, len(data)}
	}
	if c.spansSupernodes() && p >= 4 {
		return c.reduceScatterShardHier(seq, data, op)
	}
	acc := append([]float32(nil), data...)
	bounds := ringBounds(len(acc), p)
	tag := collTag(c.id, seq, 0)
	c.ringReduceScatter(tag, c.rank, p, func(r int) int { return r }, acc, bounds, op)
	ch := (c.rank + 1) % p
	s := Shard{bounds[ch], bounds[ch+1]}
	return append([]float32(nil), acc[s.Lo:s.Hi]...), s
}

// reduceScatterShardHier is the supernode-aware reduce-scatter:
// binomial reduce onto the supernode leader (step 0, shared with
// AllReduceHier), ring reduce-scatter among leaders (step 1, the only
// traffic crossing the expensive level), then the leader scatters each
// member's sub-range of its leader chunk (step 2). Inter-supernode
// bytes equal AllReduceHier's reduce-scatter half exactly; the
// intra-supernode scatter adds ~n/L cheap local bytes.
func (c *Comm) reduceScatterShardHier(seq int64, data []float32, op ReduceOp) ([]float32, Shard) {
	members, leaderIdx, myLeader := c.supernodeGroup()
	n := len(data)
	shards := c.ShardBounds(n)
	my := shards[c.rank]

	acc := append([]float32(nil), data...)
	local := c.localReduce(seq, 0, members, acc, op)

	tag2 := collTag(c.id, seq, 2)
	if c.rank != myLeader {
		m := c.recvStep(myLeader, tag2)
		return append([]float32(nil), m.data...), my
	}
	leaders := c.leaders()
	L := len(leaders)
	lb := ringBounds(n, L)
	tag1 := collTag(c.id, seq, 1)
	c.ringReduceScatter(tag1, leaderIdx[c.rank], L, func(i int) int { return leaders[i] }, local, lb, op)
	for _, r := range members {
		if r == c.rank {
			continue
		}
		s := shards[r]
		c.sendStep(r, tag2, local[s.Lo:s.Hi], nil)
	}
	return append([]float32(nil), local[my.Lo:my.Hi]...), my
}

// AllGatherShard is the inverse of ReduceScatterShard: every rank
// contributes its owned range (len(shard) must equal its ShardBounds
// length for a vector of n elements) and receives the assembled full
// vector. Combined with a local update of the owned range, it
// completes the sharded-optimizer schedule
// reduce-scatter → shard update → all-gather with the same total bytes
// as a ring all-reduce on the ring path.
//
// The returned slice may share backing storage with other ranks of the
// same supernode on the hierarchical path (the broadcast forwards one
// buffer, exactly like AllReduce); treat it as read-only or copy out.
// The shard argument itself is safe to recycle once the call returns.
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
	if c.spansSupernodes() && p >= 4 {
		return c.allGatherShardHier(seq, shard, n)
	}
	out := make([]float32, n)
	copy(out[my.Lo:my.Hi], shard)
	tag := collTag(c.id, seq, 0)
	c.ringAllGather(tag, c.rank, p, func(r int) int { return r }, out, ringBounds(n, p))
	return out
}

// allGatherShardHier gathers member shards onto the supernode leader
// (step 0), runs the leader ring all-gather (step 1, bytes equal to
// AllReduceHier's all-gather half), then broadcasts the full vector
// within the supernode (step 2, shared with AllReduceHier).
func (c *Comm) allGatherShardHier(seq int64, shard []float32, n int) []float32 {
	members, leaderIdx, myLeader := c.supernodeGroup()
	shards := c.ShardBounds(n)

	tag0 := collTag(c.id, seq, 0)
	if c.rank != myLeader {
		c.sendStep(myLeader, tag0, shard, nil)
		return c.localBcast(seq, 2, members, myLeader, nil)
	}
	full := make([]float32, n)
	my := shards[c.rank]
	copy(full[my.Lo:my.Hi], shard)
	for _, r := range members {
		if r == c.rank {
			continue
		}
		m := c.recvStep(r, tag0)
		s := shards[r]
		if len(m.data) != s.Len() {
			panic(fmt.Sprintf("mpi: AllGatherShard rank %d: member %d sent %d elems, owns %d", c.rank, r, len(m.data), s.Len()))
		}
		copy(full[s.Lo:s.Hi], m.data)
	}
	leaders := c.leaders()
	L := len(leaders)
	tag1 := collTag(c.id, seq, 1)
	c.ringAllGather(tag1, leaderIdx[c.rank], L, func(i int) int { return leaders[i] }, full, ringBounds(n, L))
	return c.localBcast(seq, 2, members, myLeader, full)
}
