package moe

import (
	"fmt"
	"time"

	"bagualu/internal/metrics"
	"bagualu/internal/mpi"
	"bagualu/internal/tensor"
)

// The MoE round trip: rows leave for their experts' owners, the owners
// compute, and the results return positionally aligned with the rows
// that were sent. Forward (tokens out, expert outputs back), Backward
// (output gradients out, input gradients back) and Infer are the same
// sequence around a different compute callback; roundTrip is its only
// implementation.

// legFn computes one received leg. in holds the leg's rows packed
// expert-major ([rows, d]; local expert le owns rows off[le]..off[le+1],
// in dispatch order) and the result has the same shape and row order.
// l is 0 for the local leg — self plus same-supernode sources — and 1
// for the cross-supernode leg, whether or not the exchange blocks: both
// modes compute the same rows in the same two passes, so they train the
// same bits. Legs that received no rows are skipped.
type legFn func(l int, in *tensor.Tensor, off []int) *tensor.Tensor

// trip describes one round trip.
type trip struct {
	// sendOrder lists, per destination rank, the (token, k) behind each
	// outbound row; it sizes the outbound buffer, and the returned legs
	// are aligned with it.
	sendOrder [][]sendRef
	// stage fills the outbound buffer (rows, plus expert-slot metadata
	// in the token direction).
	stage func(sb *mpi.SendBuf)
	// ord is the per-leg, per-local-expert grouping of received rows:
	// written from the slot metadata in the token direction, read back
	// in the gradient direction (gradient rows carry no metadata; they
	// arrive exactly where the forward's rows did).
	ord *[2][][]rowRef
	// backward marks the gradient direction: cached grouping, double
	// the compute charge, and a blocking return leg (the next layer
	// needs every row).
	backward bool
	compute  legFn
	// window, when set, runs after the local leg's compute, before the
	// cross-supernode leg is joined (shadow experts).
	window func()
	// final marks a compute loop that leaves the experts' gradients
	// final: the layer reports them (expertsDone) before the return leg.
	final bool
}

// roundTrip runs tr and hands back the returned rows: ret[0] alone when
// the return leg blocked, ret[0] local and ret[1] cross-supernode
// sources when it ran two-phase (read them through legRow). The caller
// releases them. t is the host-time breakdown in the token orientation:
// Dispatch* is the outbound exchange, Combine* the return.
func (m *DistMoE) roundTrip(tr trip) (ret [2]*mpi.RecvBuf, t Timing) {
	d, p := m.Cfg.Dim, m.comm.Size()
	// The outbound and return counts share one allocation (NewSendBuf
	// copies them).
	ints := make([]int, 2*p)
	counts, back := ints[:p], ints[p:]
	for dst, refs := range tr.sendOrder {
		counts[dst] = len(refs) * d
	}
	sb := mpi.NewSendBuf(counts)
	tr.stage(sb)

	// Outbound. With overlap on, the cross-supernode leg — the rail
	// messages' receipt — is a request started right after the cheap leg
	// arrives (the hierarchical exchange has then sent its rail messages),
	// joined before its rows are computed: it runs under the local
	// compute. Blocking, one buffer holds both legs' rows. The exchange's
	// step list orders its sends.
	overlap := m.CommCfg.Overlap
	t0 := time.Now()
	ex := m.comm.BeginExchange(m.hierWire(), m.CommCfg.Codec)
	ex.PostAll(sb)
	ex.Flush()
	var in [2]*mpi.RecvBuf
	var remote *mpi.Request
	if overlap {
		in[0] = ex.RecvLocal()
		remote = m.comm.Start(func() { in[1] = ex.RecvRemote() })
	} else {
		in[0] = ex.RecvAll()
	}
	sb.Release()
	t.Dispatch = time.Since(t0).Seconds()

	if !tr.backward {
		*tr.ord = [2][][]rowRef{}
	}
	var outs [2]*tensor.Tensor
	for l := range 2 {
		rb := in[0]
		if overlap && l == 1 {
			remote.Wait()
			rb = in[1]
		}
		if !tr.backward {
			tr.ord[l] = m.groupRows(rb, l, d)
		}
		t0 = time.Now()
		if rows := phaseRows(tr.ord[l]); rows > 0 {
			packed, off := packLeg(rb, tr.ord[l], rows, d)
			outs[l] = tr.compute(l, packed, off)
			m.chargeCompute(rows, tr.backward)
		}
		if l == 0 && tr.window != nil {
			tr.window()
		}
		t.Expert += time.Since(t0).Seconds()
	}
	if tr.final {
		m.expertsDone()
	}

	// Return: every computed row goes back to its source at the
	// position it arrived in.
	for _, rb := range in {
		if rb != nil {
			for _, src := range rb.Srcs() {
				back[src] = rb.Count(src)
			}
		}
	}
	rsb := mpi.NewSendBuf(back)
	for l := range 2 {
		row := 0
		for _, refs := range tr.ord[l] {
			for _, ref := range refs {
				copy(rsb.Chunk(ref.src)[ref.pos*d:(ref.pos+1)*d], outs[l].Row(row))
				row++
			}
		}
	}
	releaseLegs(&in)

	t0 = time.Now()
	ex = m.comm.BeginExchange(m.hierWire(), m.CommCfg.Codec)
	ex.PostAll(rsb)
	ex.Flush()
	if overlap && !tr.backward {
		ret[0] = ex.RecvLocal()
		ret[1] = ex.RecvRemote()
	} else {
		ret[0] = ex.RecvAll()
	}
	rsb.Release()
	t.Combine = time.Since(t0).Seconds()
	return ret, t
}

// hierWire decides the wire-layer algorithm for Algo.
func (m *DistMoE) hierWire() bool {
	switch m.Algo {
	case Hierarchical:
		return true
	case Direct:
		return false
	default:
		return m.comm.Hierarchical()
	}
}

// sameSupernode reports whether comm rank q shares this rank's
// supernode.
func (m *DistMoE) sameSupernode(q int) bool {
	_, of := m.comm.Supernodes()
	return of[q] == of[m.comm.Rank()]
}

// groupRows assigns each row leg l received in rb to its target local
// expert using the expert-slot metadata that rode in the messages: the
// rows of rb's sources inside this rank's supernode for the local leg,
// of the others for the cross-supernode one. A leg with no source
// groups nothing (nil). Counts are exact under dropless routing, so
// each source's variable-length framing is asserted (payload a whole
// number of d-wide rows, one slot id per row) before rows are
// attributed.
func (m *DistMoE) groupRows(rb *mpi.RecvBuf, l, d int) [][]rowRef {
	var rows []int
	for _, src := range rb.Srcs() {
		if m.sameSupernode(src) != (l == 0) {
			continue
		}
		if rows == nil {
			rows = make([]int, m.LocalExperts)
		}
		rb.Rows(src, d)
		for _, le := range rb.Meta(src) {
			if le < 0 || le >= m.LocalExperts {
				panic(fmt.Sprintf("moe: received slot %d out of range (local experts %d)", le, m.LocalExperts))
			}
			rows[le]++
		}
	}
	if rows == nil {
		return nil
	}
	ord := carve[rowRef](rows)
	for _, src := range rb.Srcs() {
		if m.sameSupernode(src) == (l == 0) {
			for pos, le := range rb.Meta(src) {
				ord[le] = append(ord[le], rowRef{src, pos})
			}
		}
	}
	return ord
}

func phaseRows(ord [][]rowRef) int {
	n := 0
	for _, refs := range ord {
		n += len(refs)
	}
	return n
}

// packLeg copies a leg's rows into one flat matrix, expert-major, so a
// single grouped FFN call sees the leg's total FLOPs; off delimits each
// local expert's block.
func packLeg(rb *mpi.RecvBuf, ord [][]rowRef, rows, d int) (*tensor.Tensor, []int) {
	off := make([]int, len(ord)+1)
	in := tensor.New(rows, d)
	row := 0
	for le, refs := range ord {
		off[le] = row
		for _, ref := range refs {
			copy(in.Row(row), rb.Chunk(ref.src)[ref.pos*d:(ref.pos+1)*d])
			row++
		}
	}
	off[len(ord)] = row
	return in, off
}

// chargeCompute advances the virtual clock by the expert GEMM time at
// SimRate FLOP/s, booked as metrics.PhaseCompute: two d×hidden matmuls
// per row forward, double that backward, whose weight-gradient half is
// charged when the products it deferred run (see DeferWeightGrads).
// No-op when SimRate is unset.
func (m *DistMoE) chargeCompute(rows int, backward bool) {
	if m.SimRate <= 0 {
		return
	}
	s := expertFlops(rows, m.Cfg.Dim, m.hidden) / m.SimRate
	if backward {
		if wg := m.expertWG(); wg != nil {
			wg.Then(func() { m.comm.Compute(s, metrics.PhaseCompute) })
		} else {
			s *= 2
		}
	}
	m.comm.Compute(s, metrics.PhaseCompute)
}

// legRow returns row pos of the chunk src returned, from whichever leg
// of bufs src arrived on.
func (m *DistMoE) legRow(bufs *[2]*mpi.RecvBuf, src, pos, d int) []float32 {
	rb := bufs[0]
	if bufs[1] != nil && !m.sameSupernode(src) {
		rb = bufs[1]
	}
	return rb.Chunk(src)[pos*d : (pos+1)*d]
}

// releaseLegs returns both legs' buffers to the pool.
func releaseLegs(bufs *[2]*mpi.RecvBuf) {
	for i, rb := range bufs {
		if rb != nil {
			rb.Release()
			bufs[i] = nil
		}
	}
}
