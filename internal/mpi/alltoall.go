package mpi

import (
	"fmt"

	"bagualu/internal/tensor"
)

// pooledCopy stages a chunk through the tensor pool instead of a
// fresh allocation; used for the self chunk (a rank "sending" to
// itself is a memcpy) and leader scatter. The caller may hand the
// result to tensor.PutSlice when done, but is not required to — the
// copy is indistinguishable from a plain allocation to the GC.
func pooledCopy(src []float32) []float32 {
	dst := tensor.GetSlice(len(src))
	copy(dst, src)
	return dst
}

// All-to-all personalized exchange, the communication pattern at the
// heart of MoE dispatch/combine. chunks[d] is the payload destined to
// comm rank d; the result r[s] is the payload received from comm rank
// s. Lengths may differ per pair (MPI_Alltoallv semantics).
//
// Three algorithms are provided:
//
//   - Direct: every rank eagerly sends P-1 messages. Baseline.
//   - Pairwise: P-1 balanced rounds, rank r exchanges with r±s.
//     The classic flat algorithm.
//   - Hierarchical: the paper's topology-aware variant. Traffic
//     within a supernode goes direct (cheap level); traffic crossing
//     supernodes is aggregated at a per-supernode leader, exchanged
//     leader-to-leader as one large message per supernode pair, then
//     scattered. This trades extra intra-supernode hops for a
//     dramatic reduction in the number (and per-byte cost) of
//     inter-supernode messages, which is what makes brain-scale MoE
//     dispatch feasible on the Sunway interconnect.

// AllToAll performs the exchange with the algorithm best matching the
// communicator's topology: hierarchical when it spans supernodes,
// pairwise otherwise.
func (c *Comm) AllToAll(chunks [][]float32) [][]float32 {
	if c.spansSupernodes() && c.Size() >= 4 {
		return c.AllToAllHier(chunks)
	}
	return c.AllToAllPairwise(chunks)
}

func (c *Comm) checkChunks(chunks [][]float32) {
	if len(chunks) != c.Size() {
		panic(fmt.Sprintf("mpi: AllToAll with %d chunks on a size-%d communicator", len(chunks), c.Size()))
	}
}

// AllToAllDirect sends every chunk as its own eager message.
func (c *Comm) AllToAllDirect(chunks [][]float32) [][]float32 {
	c.checkChunks(chunks)
	seq := c.nextSeq()
	tag := collTag(c.id, seq, 0)
	p := c.Size()
	out := make([][]float32, p)
	out[c.rank] = pooledCopy(chunks[c.rank])
	for d := 0; d < p; d++ {
		if d != c.rank {
			c.sendStep(d, tag, chunks[d], nil)
		}
	}
	for s := 0; s < p; s++ {
		if s != c.rank {
			m := c.recvStep(s, tag)
			out[s] = m.data
		}
	}
	return out
}

// AllToAllPairwise exchanges in P-1 rounds; in round s, rank r sends
// to (r+s) mod P and receives from (r-s) mod P.
func (c *Comm) AllToAllPairwise(chunks [][]float32) [][]float32 {
	c.checkChunks(chunks)
	seq := c.nextSeq()
	tag := collTag(c.id, seq, 0)
	p := c.Size()
	out := make([][]float32, p)
	out[c.rank] = pooledCopy(chunks[c.rank])
	for s := 1; s < p; s++ {
		dst := (c.rank + s) % p
		src := (c.rank - s + p) % p
		c.sendStep(dst, tag, chunks[dst], nil)
		m := c.recvStep(src, tag)
		out[src] = m.data
	}
	return out
}

// AllToAllHier implements the hierarchical exchange described above.
func (c *Comm) AllToAllHier(chunks [][]float32) [][]float32 {
	c.checkChunks(chunks)
	seq := c.nextSeq()
	p := c.Size()
	members, leaderIdx, myLeader := c.supernodeGroup()
	leaders := c.leaders()

	tagLocal := collTag(c.id, seq, 0)
	tagUp := collTag(c.id, seq, 1)
	tagX := collTag(c.id, seq, 2)
	tagDown := collTag(c.id, seq, 3)

	out := make([][]float32, p)
	out[c.rank] = pooledCopy(chunks[c.rank])

	inSN := make(map[int]bool, len(members))
	for _, m := range members {
		inSN[m] = true
	}

	// 1. Direct exchange within the supernode (cheap links).
	for _, d := range members {
		if d != c.rank {
			c.sendStep(d, tagLocal, chunks[d], nil)
		}
	}

	// 2. Upward: ship all cross-supernode chunks to the local leader
	// as one message. Header: (dst, len) pairs.
	var upHdr []int
	var upData []float32
	for d := 0; d < p; d++ {
		if !inSN[d] {
			upHdr = append(upHdr, d, len(chunks[d]))
			upData = append(upData, chunks[d]...)
		}
	}
	isLeader := c.rank == myLeader

	// Leader state: per destination supernode-leader index, the
	// aggregated header (src, dst, len triples) and data.
	var aggHdr [][]int
	var aggData [][]float32
	if isLeader {
		aggHdr = make([][]int, len(leaders))
		aggData = make([][]float32, len(leaders))
		absorb := func(src int, hdr []int, data []float32) {
			off := 0
			for i := 0; i < len(hdr); i += 2 {
				dst, n := hdr[i], hdr[i+1]
				li := leaderIdx[c.leaderOf(dst)]
				aggHdr[li] = append(aggHdr[li], src, dst, n)
				aggData[li] = append(aggData[li], data[off:off+n]...)
				off += n
			}
		}
		absorb(c.rank, upHdr, upData)
		for _, m := range members {
			if m == c.rank {
				continue
			}
			msg := c.recvStep(m, tagUp)
			absorb(m, msg.ints, msg.data)
		}
	} else {
		c.sendStep(myLeader, tagUp, upData, upHdr)
	}

	// 3. Leader-to-leader exchange, one aggregated message per pair,
	// in pairwise round order.
	if isLeader {
		me := leaderIdx[c.rank]
		nl := len(leaders)
		recvHdr := make([][]int, nl)
		recvData := make([][]float32, nl)
		for s := 1; s < nl; s++ {
			dst := (me + s) % nl
			src := (me - s + nl) % nl
			c.sendStep(leaders[dst], tagX, aggData[dst], aggHdr[dst])
			m := c.recvStep(leaders[src], tagX)
			recvHdr[src], recvData[src] = m.ints, m.data
		}

		// 4. Downward: split received aggregates per local member.
		downHdr := make(map[int][]int) // member -> (src, len) pairs
		downData := make(map[int][]float32)
		for src := 0; src < nl; src++ {
			hdr, data := recvHdr[src], recvData[src]
			off := 0
			for i := 0; i < len(hdr); i += 3 {
				from, dst, n := hdr[i], hdr[i+1], hdr[i+2]
				downHdr[dst] = append(downHdr[dst], from, n)
				downData[dst] = append(downData[dst], data[off:off+n]...)
				off += n
			}
		}
		for _, m := range members {
			if m == c.rank {
				continue
			}
			c.sendStep(m, tagDown, downData[m], downHdr[m])
		}
		// Leader keeps its own share.
		c.scatterInto(out, downHdr[c.rank], downData[c.rank])
	} else {
		m := c.recvStep(myLeader, tagDown)
		c.scatterInto(out, m.ints, m.data)
	}

	// 5. Collect the intra-supernode direct messages.
	for _, s := range members {
		if s != c.rank {
			m := c.recvStep(s, tagLocal)
			out[s] = m.data
		}
	}

	return out
}

// leaderMaps returns the comm's cached supernode -> leader-rank map
// and the leader list in first-appearance order, building both with
// one O(P) pass on first use. Before this cache existed, leaderOf did
// an O(P) scan per call, making AllToAllHier's absorb loop O(P²) in
// the header count.
func (c *Comm) leaderMaps() (map[int]int, []int) {
	if c.snLeader == nil {
		t := c.Topology()
		c.snLeader = make(map[int]int)
		for q := 0; q < c.Size(); q++ {
			sn := t.Supernode(c.group[q])
			if _, ok := c.snLeader[sn]; !ok {
				c.snLeader[sn] = q
				c.leaderList = append(c.leaderList, q)
			}
		}
	}
	return c.snLeader, c.leaderList
}

// leaderOf returns the leader comm rank of the supernode containing
// comm rank r.
func (c *Comm) leaderOf(r int) int {
	snLeader, _ := c.leaderMaps()
	return snLeader[c.Topology().Supernode(c.group[r])]
}

// scatterInto fills out[src] slices from a (src, len)-headed payload.
func (c *Comm) scatterInto(out [][]float32, hdr []int, data []float32) {
	off := 0
	for i := 0; i < len(hdr); i += 2 {
		src, n := hdr[i], hdr[i+1]
		out[src] = pooledCopy(data[off : off+n])
		off += n
	}
}

// AllToAllBruck implements the Bruck algorithm: ⌈log₂P⌉ rounds, each
// forwarding roughly half the blocks to rank+2^k. It minimizes the
// number of messages (latency-optimal) at the cost of each datum
// traveling through up to log₂P intermediate ranks (bandwidth
// overhead ~log₂P/2) — the classical alternative the hierarchical
// algorithm is measured against for small MoE payloads.
func (c *Comm) AllToAllBruck(chunks [][]float32) [][]float32 {
	c.checkChunks(chunks)
	seq := c.nextSeq()
	p := c.Size()
	me := c.rank

	// Phase 1: local rotation. blocks[i] carries the payload destined
	// to comm rank (me+i) mod p.
	blocks := make([][]float32, p)
	for i := 0; i < p; i++ {
		blocks[i] = append([]float32(nil), chunks[(me+i)%p]...)
	}

	// Phase 2: for each bit k, ship every block whose index has bit k
	// set to rank me+k, framed as (blockIdx, len) pairs so variable
	// lengths survive relaying.
	step := 0
	for k := 1; k < p; k <<= 1 {
		tag := collTag(c.id, seq, step)
		step++
		var hdr []int
		var data []float32
		for i := 0; i < p; i++ {
			if i&k != 0 {
				hdr = append(hdr, i, len(blocks[i]))
				data = append(data, blocks[i]...)
			}
		}
		c.sendStep((me+k)%p, tag, data, hdr)
		m := c.recvStep((me-k+p)%p, tag)
		off := 0
		for j := 0; j < len(m.ints); j += 2 {
			i, n := m.ints[j], m.ints[j+1]
			blocks[i] = append([]float32(nil), m.data[off:off+n]...)
			off += n
		}
	}

	// Phase 3: inverse rotation. After the exchanges, blocks[i] holds
	// the payload sent *to us* by rank (me-i) mod p.
	out := make([][]float32, p)
	for i := 0; i < p; i++ {
		out[(me-i+p)%p] = blocks[i]
	}
	return out
}
