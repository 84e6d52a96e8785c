package mpi

import (
	"fmt"

	"bagualu/internal/half"
	"bagualu/internal/simnet/coll"
)

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

// The collectives below run the step lists of internal/simnet/coll,
// whose Kind docs state each algorithm; exec is their one interpreter,
// and the step walk (internal/perfmodel) prices the same lists.

// Barrier blocks until every rank of the communicator has entered it:
// the zero-length gather, ceil(log2 P) rounds of empty messages.
func (c *Comm) Barrier() {
	gather[int](c, nil)
}

// Bcast distributes root's data to every rank using a binomial tree
// and returns it. Non-root ranks may pass nil.
func (c *Comm) Bcast(root int, data []float32) []float32 {
	return c.exec(c.nextSeq(), c.list(coll.Bcast, root), data, nil, GradWire{}, nil)
}

// Reduce combines each rank's data with op, leaving the result on
// root. All ranks receive the reduced slice only on root (others get
// nil). data is not modified.
func (c *Comm) Reduce(root int, data []float32, op ReduceOp) []float32 {
	acc := c.exec(c.nextSeq(), c.list(coll.Reduce, root), append([]float32(nil), data...), nil, GradWire{}, op)
	if c.rank != root {
		return nil
	}
	return acc
}

// AllReduce combines data across all ranks with op and returns the
// result on every rank. It takes the rail schedule of AllReduceHier,
// which beats the flat ring at every buffer size once the ring would
// cross supernodes (R8), when Hierarchical reports true, and the ring
// otherwise.
func (c *Comm) AllReduce(data []float32, op ReduceOp) []float32 {
	return c.allReduceKind(c.geometry().Algo(coll.RingAllReduce), append([]float32(nil), data...), op, GradWire{})
}

// AllReduceGrads sums data across all ranks on the wire w, by
// AllReduce's algorithm choice: with the zero GradWire it is
// AllReduce(data, OpSum) bit for bit, with a 16-bit one its result
// rounded once to the FP16 grid at w.Scale (see GradWire).
//
// Unlike AllReduce it reduces data in place and returns it: the caller
// hands over a buffer it packed for the call. A float32 hop sends a
// view of it, which a peer may still be reading when the call returns,
// so the caller reads the result and writes it no more.
func (c *Comm) AllReduceGrads(data []float32, w GradWire) []float32 {
	return c.allReduceKind(c.geometry().Algo(coll.RingAllReduce), data, OpSum, w)
}

// AllReduceRing is the bandwidth-optimal ring all-reduce
// (coll.RingAllReduce): a reduce-scatter pass followed by an all-gather
// pass, 2(P-1) steps moving ~2·n/P bytes each.
func (c *Comm) AllReduceRing(data []float32, op ReduceOp) []float32 {
	return c.allReduceKind(coll.RingAllReduce, append([]float32(nil), data...), op, GradWire{})
}

// AllReduceHier is the topology-aware all-reduce, the rail schedule
// (coll.RailAllReduce). ReduceScatterShard's hierarchical path is its
// phases A and B and AllGatherShard's its phases C and D. The returned
// slice is exclusively owned by the caller.
func (c *Comm) AllReduceHier(data []float32, op ReduceOp) []float32 {
	return c.allReduceKind(coll.RailAllReduce, append([]float32(nil), data...), op, GradWire{})
}

// allReduceKind reduces acc in place on the list k and returns it.
func (c *Comm) allReduceKind(k coll.Kind, acc []float32, op ReduceOp, w GradWire) []float32 {
	seq := c.nextSeq()
	if c.Size() == 1 {
		return acc
	}
	if w.half() {
		w.toWire(acc, acc)
	}
	c.exec(seq, c.list(k, 0), acc, nil, w, op)
	if w.half() {
		// Only a 16-bit wire may rewrite acc here: a float32 hop sends a
		// view of it, and a peer may still be reading the last.
		w.fromWire(acc, acc)
	}
	return acc
}

// AllGather concatenates each rank's equal-length data in rank order
// and returns the full slice on every rank (see gather).
func (c *Comm) AllGather(data []float32) []float32 { return gather(c, data) }

// AllGatherInts concatenates equal-length int payloads in rank order.
func (c *Comm) AllGatherInts(xs []int) []int { return gather(c, xs) }

// gather is the dissemination all-gather (coll.Dissemination) behind
// Barrier, AllGather and AllGatherInts: every rank moves n(P-1)
// elements in ceil(log2 P) messages, against the ring's P-1, and the
// callers pass a handful of elements each, so no size rule picks
// another algorithm. Its buffer's block j holds the data of rank me-j;
// the blocks are then laid out in rank order.
func gather[T float32 | int](c *Comm, xs []T) []T {
	seq := c.nextSeq()
	p, n, me := c.Size(), len(xs), c.rank
	buf := make([]T, n*p)
	copy(buf, xs)
	f, _ := any(buf).([]float32)
	ints, _ := any(buf).([]int)
	c.exec(seq, c.list(coll.Dissemination, 0), f, ints, GradWire{}, nil)
	out := make([]T, n*p)
	for j := 0; j < p; j++ {
		r := (me - j + p) % p
		copy(out[r*n:(r+1)*n], buf[j*n:(j+1)*n])
	}
	return out
}

// exec runs this rank's steps of the collective seq on its vector, f
// or ints (the other nil), and returns the vector (Bcast's Take may
// replace it). Sum steps go through sendSum and recvSumInto on the wire
// w, combining with op. A send of one chunk's range sends a view of it:
// the lists rewrite no such range before every peer that received the
// view has read it (the ring's all-gather half receives only after the
// whole ring has moved on). A rail is packed.
func (c *Comm) exec(seq int64, steps []coll.Step, f []float32, ints []int, w GradWire, op ReduceOp) []float32 {
	n := len(f) + len(ints)
	var slots [][]float32
	var packed []float32 // the payload of the last multi-range float32 send
	var packedCut coll.Cut
	for i := range steps {
		st := &steps[i]
		if st.Skip(n) {
			continue
		}
		if st.Op != coll.Send {
			packed = nil
		}
		tag := collTag(c.id, seq, int(st.Tag))
		peer := int(st.Peer)
		lo, hi := st.Piece(n, 0)
		switch st.Op {
		case coll.Send:
			narrow := st.Wire != coll.Partial
			switch {
			case ints != nil:
				c.sendStep(peer, tag, nil, ints[lo:hi])
			case st.Cut.Lo != coll.Every:
				c.sendSum(peer, tag, f[lo:hi], w, narrow)
			case narrow && w.half():
				u := getU16(st.Len(n))
				for j, off := 0, 0; j < st.Cut.Pieces(); j++ {
					lo, hi := st.Piece(n, j)
					half.EncodeSlice(u[off:off+hi-lo], f[lo:hi])
					off += hi - lo
				}
				c.proc.post(c.group[peer], message{tag: tag, u16: u, staged: true})
			default:
				// A rail travels as a packed copy, which consecutive sends
				// of the same rail share.
				if packed == nil || packedCut != st.Cut {
					packed, packedCut = pack(f, st, n), st.Cut
				}
				c.sendStep(peer, tag, packed, nil)
			}
		case coll.Recv, coll.RecvAdd:
			var combine ReduceOp
			if st.Op == coll.RecvAdd {
				combine = op
			}
			if st.Cut.Pieces() == 1 && ints == nil {
				c.recvSumInto(peer, tag, f[lo:hi], combine)
				break
			}
			m := c.recvStep(peer, tag)
			switch {
			case ints != nil:
				if len(m.ints) != hi-lo {
					panic(fmt.Sprintf("mpi: gather length mismatch: %d vs %d", len(m.ints), hi-lo))
				}
				copy(ints[lo:hi], m.ints)
			case m.u16 != nil:
				for j, off := 0, 0; j < st.Cut.Pieces(); j++ {
					lo, hi := st.Piece(n, j)
					half.DecodeSlice(f[lo:hi], m.u16[off:off+hi-lo])
					off += hi - lo
				}
				releaseStaged(&m)
			default:
				unpack(f, m.data, st, n)
			}
		case coll.Take:
			f = c.recvStep(peer, tag).data
			n = len(f)
		case coll.Hold, coll.Stash:
			if slots == nil {
				slots = make([][]float32, c.Size())
			}
			if st.Op == coll.Hold {
				slots[st.Slot] = c.recvSum(peer, tag)
			} else {
				slots[st.Slot] = pack(f, st, n)
			}
		case coll.Fold:
			v := slots[:st.Slot]
			for k := 1; k < len(v); k <<= 1 {
				for q := 0; q+k < len(v); q += 2 * k {
					op(v[q], v[q+k])
				}
			}
			unpack(f, v[0], st, n)
		case coll.Round:
			w.round(f[lo:hi])
		}
	}
	return f
}

// pack copies the step's ranges of f, end to end, into a fresh slice.
func pack(f []float32, st *coll.Step, n int) []float32 {
	out := make([]float32, st.Len(n))
	for j, off := 0, 0; j < st.Cut.Pieces(); j++ {
		lo, hi := st.Piece(n, j)
		off += copy(out[off:], f[lo:hi])
	}
	return out
}

// unpack copies a packed payload back into the step's ranges of f.
func unpack(f, x []float32, st *coll.Step, n int) {
	for j := 0; j < st.Cut.Pieces(); j++ {
		lo, hi := st.Piece(n, j)
		x = x[copy(f[lo:hi], x):]
	}
}
