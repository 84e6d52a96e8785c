package mpi

import (
	"fmt"

	"bagualu/internal/half"
	"bagualu/internal/simnet"
	"bagualu/internal/simnet/coll"
	"bagualu/internal/tensor"
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
// whose Kind docs state each algorithm, through exec, the one runner of
// every list in this package (the MoE exchanges' too, wire.go); the step
// walk (internal/perfmodel) prices the same lists.

// Barrier blocks until every rank of the communicator has entered it:
// the zero-length gather, ceil(log2 P) rounds of empty messages.
func (c *Comm) Barrier() {
	gather[int](c, nil)
}

// Bcast distributes root's data to every rank using a binomial tree
// and returns it. Non-root ranks may pass nil.
func (c *Comm) Bcast(root int, data []float32) []float32 {
	return c.collective(c.nextSeq(), c.list(coll.Bcast, root), data, nil, GradWire{}, nil)
}

// Reduce combines each rank's data with op, leaving the result on
// root. All ranks receive the reduced slice only on root (others get
// nil). data is not modified.
func (c *Comm) Reduce(root int, data []float32, op ReduceOp) []float32 {
	acc := c.collective(c.nextSeq(), c.list(coll.Reduce, root), append([]float32(nil), data...), nil, GradWire{}, op)
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
	c.collective(seq, c.list(k, 0), acc, nil, w, op)
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
	c.collective(seq, c.list(coll.Dissemination, 0), f, ints, GradWire{}, nil)
	out := make([]T, n*p)
	for j := 0; j < p; j++ {
		r := (me - j + p) % p
		copy(out[r*n:(r+1)*n], buf[j*n:(j+1)*n])
	}
	return out
}

// collective runs this rank's steps of the collective seq on its vector,
// f or ints (the other nil), and returns the vector (Bcast's Take may
// replace it). Sums travel on the wire w and combine with op.
func (c *Comm) collective(seq int64, steps []coll.Step, f []float32, ints []int, w GradWire, op ReduceOp) []float32 {
	c.vec = vec{f: f, ints: ints, n: len(f) + len(ints), w: w, op: op, slots: c.vec.slots}
	c.exec(seq, steps, 0, toEnd, &c.vec)
	clear(c.vec.slots)
	f, c.vec = c.vec.f, vec{slots: c.vec.slots[:0]}
	return f
}

// cargo is what the messages of a step list carry: the cuts of one
// vector (vec, the collectives) or an exchange's blocks (Exchange). exec
// moves the messages; the cargo builds each one sent and absorbs each
// one received.
type cargo interface {
	// skip reports whether step st moves nothing.
	skip(st *coll.Step) bool
	// message builds step st's message to comm rank q.
	message(st *coll.Step, q int) message
	// absorb takes in step st's message m from comm rank q, or runs st
	// when it is a local step (m is then empty).
	absorb(st *coll.Step, q int, m message)
}

// toEnd is an op no step has: exec(…, toEnd, …) stops only at a Mark or
// the end.
const toEnd coll.Op = 255

// exec is the package's one runner of step lists. It runs steps i… of
// this rank's list for the collective or exchange seq on x, up to the
// first step of op stop or a Mark, and returns that step's index
// (len(steps) at the end), so a caller resumes where it stopped. A
// step's N messages go to (come from) Geometry.Peer; a Send step's are
// charged as one simnet.Run per link stretch (a straggler's), so a
// collective's one message is a run of one.
func (c *Comm) exec(seq int64, steps []coll.Step, i int, stop coll.Op, x cargo) int {
	g, p := c.geometry(), c.proc
	for ; i < len(steps); i++ {
		st := &steps[i]
		if st.Op == stop || st.Op == coll.Mark {
			return i
		}
		if x.skip(st) {
			continue
		}
		tag := collTag(c.id, seq, int(st.Tag))
		switch st.Op {
		case coll.Send:
			var r simnet.Run
			for j, open := 0, false; j < int(st.N); j++ {
				q := g.Peer(st, j)
				if !open {
					r, open = p.sendRun(c.group[q]), true
				}
				last := j+1 == int(st.N) || p.w.linkDelay(p.global, c.group[g.Peer(st, j+1)]) != p.w.linkDelay(p.global, c.group[q])
				m := x.message(st, q)
				m.tag = tag
				p.postOn(&r, last, c.group[q], m)
				open = !last
			}
		case coll.Stash, coll.Fold, coll.Round:
			x.absorb(st, -1, message{})
		default:
			for j := 0; j < int(st.N); j++ {
				q := g.Peer(st, j)
				x.absorb(st, q, p.recv(c.group[q], tag, c.group, c.born))
			}
		}
	}
	return i
}

// vec is a collective's cargo: a vector of n elements, f or ints, whose
// steps' cuts name what a message carries. Sums travel on the wire w,
// combine with op, and a rail owner folds its received contributions in
// slots.
type vec struct {
	f      []float32
	ints   []int
	n      int
	w      GradWire
	op     ReduceOp
	slots  [][]float32
	packed []float32 // the payload of the last multi-range float32 send
	cut    coll.Cut  // packed's
}

func (v *vec) skip(st *coll.Step) bool { return st.Skip(v.n) }

// message sends the step's elements. A narrow hop on a 16-bit wire (one
// carrying no partial sum, see GradWire) travels as FP16 in a staged
// buffer the receiver releases. Otherwise one range travels as a view of
// it: the lists rewrite no such range before every peer that received
// the view has read it (the ring's all-gather half receives only after
// the whole ring has moved on). A rail travels as a packed copy, which
// consecutive sends of the same rail share.
func (v *vec) message(st *coll.Step, _ int) message {
	lo, hi := st.Piece(v.n, 0)
	switch {
	case v.ints != nil:
		return message{ints: v.ints[lo:hi]}
	case st.Wire != coll.Partial && v.w.half():
		u := getU16(st.Len(v.n))
		for j, off := 0, 0; j < st.Cut.Pieces(); j++ {
			lo, hi := st.Piece(v.n, j)
			half.EncodeSlice(u[off:off+hi-lo], v.f[lo:hi])
			off += hi - lo
		}
		return message{u16: u, staged: true}
	case st.Cut.Pieces() == 1:
		return message{data: v.f[lo:hi]}
	}
	if v.packed == nil || v.cut != st.Cut {
		v.packed, v.cut = pack(v.f, st, v.n), st.Cut
	}
	return message{data: v.packed}
}

// absorb writes a received message over the step's elements (Recv), or
// combines it into them (RecvAdd), in the width it travelled; Take
// adopts the payload as the vector, Hold keeps it in a slot, and the
// local steps stash, fold and round.
func (v *vec) absorb(st *coll.Step, _ int, m message) {
	v.packed = nil
	switch lo, hi := st.Piece(v.n, 0); st.Op {
	case coll.Take:
		v.f, v.n = m.data, len(m.data)
	case coll.Stash: // Stash and Hold fill the slots in order
		v.slots = append(v.slots[:st.Slot], pack(v.f, st, v.n))
	case coll.Hold:
		x := m.data
		if m.u16 != nil {
			x = make([]float32, len(m.u16))
			half.DecodeSlice(x, m.u16)
		}
		v.slots = append(v.slots[:st.Slot], x)
	case coll.Fold:
		s := v.slots[:st.Slot]
		for k := 1; k < len(s); k <<= 1 {
			for q := 0; q+k < len(s); q += 2 * k {
				v.op(s[q], s[q+k])
			}
		}
		unpack(v.f, s[0], st, v.n)
	case coll.Round:
		v.w.round(v.f[lo:hi])
	default:
		if v.ints != nil {
			if len(m.ints) != hi-lo {
				panic(fmt.Sprintf("mpi: gather length mismatch: %d vs %d", len(m.ints), hi-lo))
			}
			copy(v.ints[lo:hi], m.ints)
			break
		}
		op := v.op
		if st.Op == coll.Recv {
			op = nil
		}
		for j, off := 0, 0; j < st.Cut.Pieces(); j++ {
			lo, hi := st.Piece(v.n, j)
			into(v.f[lo:hi], m.data, m.u16, off, op)
			off += hi - lo
		}
	}
	if m.u16 != nil {
		releaseStaged(&m) // a float32 payload is a view or a fresh copy
	}
}

// into writes the len(dst) elements from off of a payload, f32 or FP16
// u16, over dst, or combines them into dst with op when op is not nil.
func into(dst, f32 []float32, u16 []uint16, off int, op ReduceOp) {
	n := len(dst)
	switch {
	case u16 == nil && op == nil:
		copy(dst, f32[off:off+n])
	case u16 == nil:
		op(dst, f32[off:off+n])
	case op == nil:
		half.DecodeSlice(dst, u16[off:off+n])
	default:
		x := tensor.GetSlice(n)
		half.DecodeSlice(x, u16[off:off+n])
		op(dst, x)
		tensor.PutSlice(x)
	}
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
