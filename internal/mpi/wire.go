package mpi

import (
	"fmt"
	"math/bits"
	"sync"

	"bagualu/internal/half"
	"bagualu/internal/simnet"
	"bagualu/internal/simnet/coll"
	"bagualu/internal/tensor"
)

// Wire-format layer: the all-to-allv, flattened over pooled buffers.
// It is the package's one all-to-all — what MoE dispatch and combine
// run — and one framed exchange:
//
//   - SendBuf / RecvBuf hold one contiguous pooled payload (counts
//     header + offsets) instead of P slices, so a MoE dispatch stages
//     and absorbs all tokens with two pool hits total.
//   - Per-destination int metadata (MoE expert-slot ids) rides inside
//     the data messages, so no separate metadata round is needed.
//   - An optional FP16 codec encodes each chunk bound for another
//     supernode as raw half bit patterns once, where Post stages it. The
//     chunk then travels at 16 bits on every hop — the direct message,
//     or both hops of the hierarchical path, where the rail forwarder
//     regroups the bits as they are — and is decoded once, in assemble.
//     Chunks that stay in their supernode travel as FP32.
//   - The exchange's step list (coll.Direct, coll.Rail) runs through
//     the package's one list runner, Comm.exec, with the Exchange as
//     the payload kind (cargo): exec moves and charges the messages,
//     the Exchange frames its blocks into each one sent (message) and
//     files the blocks of each one received (absorb). exec resumes
//     where it stopped, so the Exchange runs the list to three stop
//     points — Flush to the first receive, RecvLocal to the mark that
//     ends the local leg, RecvRemote to the end — and the caller can
//     run local expert compute while cross-supernode traffic is in
//     flight.
//
// Ownership protocol: every message payload is staged into a pooled
// buffer by the sender (message.staged); the receiver releases it
// after absorbing the bytes into its flat RecvBuf. Senders therefore
// never retain references to in-flight buffers, and callers may reuse
// their SendBuf the moment Flush returns.

// Codec selects the on-the-wire element encoding of chunks bound for
// another supernode. Chunks that stay in their supernode, self traffic
// included, always travel as FP32.
type Codec int

const (
	// FP32Wire sends full-width float32 everywhere.
	FP32Wire Codec = iota
	// FP16Wire sends a chunk bound for another supernode as raw FP16
	// bit patterns (2 bytes/element) on every leg it takes, the paper's
	// mixed-precision wire format. Its values round through half
	// precision exactly once, at the source.
	FP16Wire
)

// String names the codec.
func (c Codec) String() string {
	switch c {
	case FP32Wire:
		return "fp32"
	case FP16Wire:
		return "fp16"
	default:
		return fmt.Sprintf("Codec(%d)", int(c))
	}
}

// Size-classed pool for FP16 staging buffers, mirroring the float32
// classes in package tensor.
const (
	u16MinBits = 6
	u16MaxBits = 28
)

var u16Pools [u16MaxBits + 1]sync.Pool

func u16ClassFor(n int) int {
	if n <= 0 {
		return -1
	}
	c := bits.Len(uint(n - 1))
	if c < u16MinBits {
		c = u16MinBits
	}
	if c > u16MaxBits {
		return -1
	}
	return c
}

func getU16(n int) []uint16 {
	c := u16ClassFor(n)
	if c < 0 {
		return make([]uint16, n)
	}
	if v := u16Pools[c].Get(); v != nil {
		return (*v.(*[]uint16))[:n]
	}
	return make([]uint16, 1<<c)[:n]
}

func putU16(s []uint16) {
	cp := cap(s)
	if c := u16ClassFor(cp); c >= 0 && cp == 1<<c {
		full := s[:cp]
		u16Pools[c].Put(&full)
	}
}

// WireStats counts flattened-exchange traffic staged by one
// communicator, indexed by simnet.Level. Wire is what actually
// crossed the network after codec; Raw is what an all-FP32 wire would
// have carried for the same exchange. The gap is the codec's saving:
// 2 bytes per cross-supernode element at MachineLevel, and on the
// hierarchical exchange's first hop, which carries such elements to
// their rail forwarder at node or supernode level. Unlike World.Stats
// (global, atomic), WireStats is per-comm and owned by the comm's
// goroutine.
type WireStats struct {
	Wire [4]int64 // bytes after codec
	Raw  [4]int64 // bytes an FP32 wire would have sent
	Msgs [4]int64
}

// Sub returns w minus o, for before/after snapshots around a phase.
func (w WireStats) Sub(o WireStats) WireStats {
	var d WireStats
	for i := range w.Wire {
		d.Wire[i] = w.Wire[i] - o.Wire[i]
		d.Raw[i] = w.Raw[i] - o.Raw[i]
		d.Msgs[i] = w.Msgs[i] - o.Msgs[i]
	}
	return d
}

// TotalWire sums post-codec bytes over all levels.
func (w WireStats) TotalWire() int64 {
	var t int64
	for _, v := range w.Wire {
		t += v
	}
	return t
}

// WireStats returns a snapshot of this communicator's flattened-
// exchange counters.
func (c *Comm) WireStats() WireStats { return c.wire }

func (c *Comm) accountWire(level simnet.Level, wire, raw int) {
	c.wire.Wire[level] += int64(wire)
	c.wire.Raw[level] += int64(raw)
	c.wire.Msgs[level]++
}

// SendBuf is the flattened send side of an all-to-allv exchange: one
// pooled contiguous payload holding counts[d] floats destined to each
// rank d, plus optional per-destination int metadata that rides in
// the same messages. Build with NewSendBuf + Append (+ SetMeta), hand
// to an Exchange (or a blocking AllToAllv*), then Release.
type SendBuf struct {
	data   []float32 // pooled, len = sum(counts)
	counts []int     // counts, offs and fill share one allocation
	offs   []int
	fill   []int // append cursor per destination
	meta   [][]int
}

// NewSendBuf sizes a send buffer for counts[d] floats per destination
// over one pooled backing slice.
func NewSendBuf(counts []int) *SendBuf {
	p := len(counts)
	ints := make([]int, 3*p)
	b := &SendBuf{counts: ints[:p:p], offs: ints[p : 2*p : 2*p], fill: ints[2*p:], meta: make([][]int, p)}
	total := 0
	for d, n := range counts {
		if n < 0 {
			panic(fmt.Sprintf("mpi: negative send count %d for dst %d", n, d))
		}
		b.counts[d], b.offs[d] = n, total
		total += n
	}
	b.data = tensor.GetSlice(total)
	return b
}

// Append copies row into the next free slot of dst's region.
func (b *SendBuf) Append(dst int, row []float32) {
	off := b.offs[dst] + b.fill[dst]
	if b.fill[dst]+len(row) > b.counts[dst] {
		panic(fmt.Sprintf("mpi: SendBuf overflow for dst %d (%d+%d > %d)",
			dst, b.fill[dst], len(row), b.counts[dst]))
	}
	copy(b.data[off:off+len(row)], row)
	b.fill[dst] += len(row)
}

// SetMeta records dst's metadata, which rides in the same message as
// dst's payload. The buffer keeps meta until Release; Post copies it.
func (b *SendBuf) SetMeta(dst int, meta []int) { b.meta[dst] = meta }

// Chunk returns the full payload region destined to dst (a view into
// the flat buffer; valid until Release).
func (b *SendBuf) Chunk(dst int) []float32 {
	return b.data[b.offs[dst] : b.offs[dst]+b.counts[dst]]
}

// Meta returns the metadata recorded for dst.
func (b *SendBuf) Meta(dst int) []int { return b.meta[dst] }

// Release returns the backing buffer to the pool. Safe after Flush
// (every message stages its own copy).
func (b *SendBuf) Release() {
	tensor.PutSlice(b.data)
	b.data = nil
}

// RecvBuf is the flattened receive side: one pooled contiguous
// payload grouped by source rank in ascending order, plus the
// per-source metadata that rode in the messages.
type RecvBuf struct {
	data   []float32 // pooled, len = sum over srcs of counts
	counts []int     // indexed by comm rank; 0 for absent sources
	offs   []int
	meta   [][]int
	srcs   []int // sources present, ascending
}

// Srcs lists the source ranks this buffer covers, ascending.
func (b *RecvBuf) Srcs() []int { return b.srcs }

// Count returns the number of floats received from src.
func (b *RecvBuf) Count(src int) int { return b.counts[src] }

// Chunk returns the payload received from src (a view; valid until
// Release).
func (b *RecvBuf) Chunk(src int) []float32 {
	return b.data[b.offs[src] : b.offs[src]+b.counts[src]]
}

// Meta returns the metadata received from src.
func (b *RecvBuf) Meta(src int) []int { return b.meta[src] }

// Rows validates src's variable-length framing against a row width of
// d floats and returns the row count. Dropless MoE dispatch sends
// exactly what routed — no capacity padding — so the payload must be
// a whole number of d-wide rows and every row must carry exactly one
// metadata slot id; any disagreement means the counts header and the
// payload were framed inconsistently, and we fail loudly rather than
// misattribute rows to experts.
func (b *RecvBuf) Rows(src, d int) int {
	n := b.counts[src]
	if d <= 0 || n%d != 0 {
		panic(fmt.Sprintf("mpi: recv payload from %d is %d floats, not a multiple of row width %d", src, n, d))
	}
	rows := n / d
	if m := len(b.meta[src]); m != rows {
		panic(fmt.Sprintf("mpi: recv framing mismatch from %d: %d rows of %d floats but %d metadata slots", src, rows, d, m))
	}
	return rows
}

// Release returns the backing buffer to the pool.
func (b *RecvBuf) Release() {
	tensor.PutSlice(b.data)
	b.data = nil
}

// payload is a run of exchanged elements: float32, and FP16 bit
// patterns for chunks bound for another supernode under FP16Wire. A
// hierarchical first-hop leg carries both side by side.
type payload struct {
	f32 []float32
	u16 []uint16
}

// newPayload returns n pooled elements, FP16 when fp16 is set.
func newPayload(n int, fp16 bool) payload {
	if fp16 {
		return payload{u16: getU16(n)}
	}
	return payload{f32: tensor.GetSlice(n)}
}

// release returns p's buffers to their pools.
func (p payload) release() {
	if p.f32 != nil {
		tensor.PutSlice(p.f32)
	}
	if p.u16 != nil {
		putU16(p.u16)
	}
}

// payload returns the message's elements, in the width they travel.
func (m *message) payload() payload { return payload{f32: m.data, u16: m.u16} }

// seg is one absorbed source segment awaiting assembly into a
// RecvBuf.
type seg struct {
	n int
	payload
	meta []int
	ints []int // a staged direct block's message ints, [n, nmeta, meta…]
}

// relList collects staged message buffers to return to their pools
// once a RecvBuf has been assembled from views into them.
type relList []payload

// add queues p's buffers for release; a message that is not staged
// owns nothing to release.
func (r *relList) add(p payload, staged bool) {
	if staged && (p.f32 != nil || p.u16 != nil) {
		*r = append(*r, p)
	}
}

func (r *relList) release() {
	for _, p := range *r {
		p.release()
	}
	*r = nil
}

// Exchange is an in-flight flattened all-to-allv. The protocol is:
//
//	ex := c.BeginExchange(hier, codec)
//	ex.Post(dst, chunk, meta) for each destination   // stages
//	ex.Flush()                                        // the first sends
//	local := ex.RecvLocal()    // self + intra-supernode sources
//	... compute on local tokens while remote bytes fly ...
//	remote := ex.RecvRemote()  // cross-supernode sources
//
// or, when overlap is not wanted, RecvAll() for one merged buffer.
// Comm.exec runs this rank's step list of coll.Direct or, in
// hierarchical mode, coll.Rail, whose docs state the algorithms: Flush
// runs it up to its first receive, RecvLocal up to the mark that ends
// the local leg — on the rails after the rail legs this rank forwards
// have left — and RecvRemote to its end. All sends are eager (the
// simulated network buffers them), so any interleaving of compute
// between Flush and the Recv calls is deadlock-free; every rank of the
// communicator must run the same sequence.
type Exchange struct {
	c     *Comm
	codec Codec
	kind  coll.Kind
	seq   int64
	steps []coll.Step
	next  int // the next step to run
	sn    *coll.Geometry

	flushed, localDone, remoteDone bool

	out  []seg     // this rank's staged blocks, by destination; a posted one has ints
	in   []seg     // the blocks received, by source
	held [][]block // the merged legs' other blocks, by source: this rank forwards them
	rel  relList   // the received messages' buffers, released at assembly
}

// block is one block of a leg, q the end its frame names.
type block struct {
	q int
	seg
}

// BeginExchange opens a flattened all-to-allv on the communicator.
// hier selects the topology-aware path (cross-supernode chunks are
// forwarded by rail, see coll.Rail); it degrades to the direct protocol
// when the comm does not span supernodes. Every rank of the comm must
// call BeginExchange with the same arguments, in the same collective
// order.
func (c *Comm) BeginExchange(hier bool, codec Codec) *Exchange {
	g, p := c.geometry(), c.Size()
	k, segs := g.Exchange(hier), make([]seg, 2*p)
	return &Exchange{c: c, codec: codec, kind: k, seq: c.nextSeq(), steps: c.list(k, 0), sn: g,
		out: segs[:p], in: segs[p:], held: make([][]block, p)}
}

// local reports whether comm rank q shares this rank's supernode: the
// split between RecvLocal and RecvRemote in both modes.
func (e *Exchange) local(q int) bool { return e.sn.Of[q] == e.sn.Of[e.c.rank] }

// fp16 reports whether chunks to or from comm rank q travel as FP16.
func (e *Exchange) fp16(q int) bool { return e.codec == FP16Wire && !e.local(q) }

// Post stages the chunk destined to dst; Flush and the Recv calls send
// it. Under FP16Wire a chunk bound for another supernode is encoded
// here, the exchange's one encode site. The caller keeps ownership of
// data and meta (Post copies). Each destination may be posted at most
// once per exchange.
func (e *Exchange) Post(dst int, data []float32, meta []int) {
	switch {
	case e.flushed:
		panic("mpi: Exchange.Post after Flush")
	case dst < 0 || dst >= e.c.Size():
		panic(fmt.Sprintf("mpi: Exchange.Post to invalid rank %d", dst))
	case e.out[dst].ints != nil:
		panic(fmt.Sprintf("mpi: Exchange.Post twice to rank %d", dst))
	}
	fp16 := e.fp16(dst)
	p := newPayload(len(data), fp16)
	if fp16 {
		half.EncodeSlice(p.u16, data)
	} else {
		copy(p.f32, data)
	}
	// A direct message's ints frame its one block: staged here, they
	// carry the copy of meta.
	hdr := 0
	if e.kind == coll.Direct && dst != e.c.rank {
		hdr = e.kind.Frame(1)
	}
	ints := make([]int, hdr+len(meta))
	copy(ints[hdr:], meta)
	if hdr > 0 {
		ints[0], ints[1] = len(data), len(meta)
	}
	e.out[dst] = seg{n: len(data), payload: p, meta: ints[hdr:], ints: ints}
	if dst == e.c.rank {
		e.c.accountWire(simnet.SelfLevel, 4*len(data)+8*len(meta), 4*len(data)+8*len(meta))
	}
}

// PostAll posts every destination chunk of a SendBuf.
func (e *Exchange) PostAll(sb *SendBuf) {
	for d := 0; d < e.c.Size(); d++ {
		e.Post(d, sb.Chunk(d), sb.Meta(d))
	}
}

// Flush completes the staging — destinations never posted get an empty
// chunk — and runs the list up to its first receive. After Flush the
// exchange's SendBuf may be released or reused.
func (e *Exchange) Flush() {
	if e.flushed {
		panic("mpi: Exchange.Flush twice")
	}
	for d := range e.out {
		if e.out[d].ints == nil {
			e.Post(d, nil, nil)
		}
	}
	e.flushed = true
	e.next = e.c.exec(e.seq, e.steps, 0, coll.Recv, e)
}

// skip reports false: an exchange's runs always move their messages.
func (e *Exchange) skip(*coll.Step) bool { return false }

// message builds the message of step st to comm rank q from the blocks
// it carries, taking over this rank's staged ones, and books it in the
// comm's WireStats: a direct message is its one block's, a leg gathers
// this rank's and, on the rail hop, the merged legs' blocks it forwards.
func (e *Exchange) message(st *coll.Step, q int) message {
	me := e.c.rank
	if e.kind == coll.Direct {
		b := e.out[q]
		e.out[q].payload = payload{}
		return e.account(q, message{ints: b.ints, data: b.f32, u16: b.u16, staged: true})
	}
	blk := func(src, dst int) seg {
		if src == me {
			return e.out[dst]
		}
		for _, b := range e.held[src] {
			if b.q == dst {
				return b.seg
			}
		}
		panic(fmt.Sprintf("mpi: exchange block %d -> %d not received", src, dst))
	}
	k, nf, nu, nm := 0, 0, 0, 0
	e.sn.Blocks(st, me, q, func(src, dst int) {
		b := blk(src, dst)
		k, nf, nu, nm = k+1, nf+len(b.f32), nu+len(b.u16), nm+len(b.meta)
	})
	hdr := e.kind.Frame(k)
	m := message{ints: make([]int, hdr+nm), staged: true}
	if m.ints[0] = k; nf > 0 {
		m.data = tensor.GetSlice(nf)
	}
	if nu > 0 {
		m.u16 = getU16(nu)
	}
	i, nf, nu, nm := 1, 0, 0, hdr
	e.sn.Blocks(st, me, q, func(src, dst int) {
		b := blk(src, dst)
		m.ints[i], m.ints[i+1], m.ints[i+2] = dst, b.n, len(b.meta)
		if st.Tag == 2 {
			m.ints[i] = src
		}
		i, nf, nu, nm = i+3, nf+copy(m.data[nf:], b.f32), nu+copy(m.u16[nu:], b.u16), nm+copy(m.ints[nm:], b.meta)
		if src == me {
			b.release()
		}
	})
	return e.account(q, m)
}

// account books message m to comm rank q in the comm's WireStats.
func (e *Exchange) account(q int, m message) message {
	e.c.accountWire(e.sn.Level(e.c.rank, q), m.nbytes(), 4*(len(m.data)+len(m.u16))+8*len(m.ints))
	return m
}

// absorb files the blocks of step st's message m from comm rank src:
// those for this rank by source, a merged leg's others to forward.
func (e *Exchange) absorb(st *coll.Step, src int, m message) {
	e.rel.add(m.payload(), m.staged)
	e.blocks(m, src, func(q int, s seg) {
		switch {
		case st.Tag == 1 && q != e.c.rank:
			e.held[src] = append(e.held[src], block{q, s})
		case st.Tag == 2:
			e.in[q] = s
		default:
			e.in[src] = s
		}
	})
}

// blocks calls f with each block of message m from comm rank src as a
// seg, a view into m in the width it travels, and the end its frame
// names (coll.Kind.Frame): a direct message's one block is src's.
func (e *Exchange) blocks(m message, src int, f func(q int, s seg)) {
	var hdr, meta []int
	if k := len(m.ints); e.kind == coll.Direct && k >= 2 {
		one := [3]int{src, m.ints[0], m.ints[1]}
		hdr, meta = one[:], m.ints[2:]
	} else if e.kind == coll.Rail && k > 0 && m.ints[0] >= 0 && k >= 1+3*m.ints[0] {
		hdr, meta = m.ints[1:1+3*m.ints[0]], m.ints[1+3*m.ints[0]:]
	} else {
		panic(fmt.Sprintf("mpi: wire framing corrupt: header of %d ints", k))
	}
	var offF, offU, offM int
	for i := 0; i < len(hdr); i += 3 {
		q, n, nm := hdr[i], hdr[i+1], hdr[i+2]
		if q < 0 || q >= e.c.Size() {
			panic(fmt.Sprintf("mpi: wire framing corrupt: block of rank %d", q))
		}
		fp16, left := e.fp16(q), len(m.data)-offF
		if fp16 {
			left = len(m.u16) - offU
		}
		if n < 0 || n > left || nm < 0 || offM+nm > len(meta) {
			panic("mpi: wire framing corrupt: block out of bounds")
		}
		s := seg{n: n, meta: meta[offM : offM+nm]}
		offM += nm
		if fp16 {
			s.u16, offU = m.u16[offU:offU+n], offU+n
		} else {
			s.f32, offF = m.data[offF:offF+n], offF+n
		}
		f(q, s)
	}
	if offF != len(m.data) || offU != len(m.u16) || offM != len(meta) {
		panic("mpi: wire framing corrupt: payload longer than its blocks")
	}
}

// assemble copies the blocks received from srcs (ascending) into one
// flat pooled RecvBuf, decoding FP16 ones — the exchange's one decode
// site — then releases the received messages' buffers; a message whose
// whole payload is one staged FP32 buffer (the self chunk of a one-rank
// exchange, for one) is taken over uncopied.
func (e *Exchange) assemble(srcs []int) *RecvBuf {
	p := e.c.Size()
	ints := make([]int, 2*p)
	b := &RecvBuf{
		counts: ints[:p:p],
		offs:   ints[p:],
		meta:   make([][]int, p),
		srcs:   srcs,
	}
	segs, rel := e.in, &e.rel
	total := 0
	for _, s := range srcs {
		b.offs[s] = total
		b.counts[s] = segs[s].n
		b.meta[s] = segs[s].meta
		total += segs[s].n
	}
	if r := *rel; len(r) == 1 && r[0].u16 == nil && len(r[0].f32) == total && total > 0 {
		for _, s := range srcs {
			if f := segs[s].f32; len(f) == total && &f[0] == &r[0].f32[0] {
				b.data, *rel = f, nil
				return b
			}
		}
	}
	b.data = tensor.GetSlice(total)
	for _, s := range srcs {
		dst := b.data[b.offs[s] : b.offs[s]+segs[s].n]
		switch {
		case segs[s].u16 != nil:
			half.DecodeSlice(dst, segs[s].u16)
		case segs[s].f32 != nil:
			copy(dst, segs[s].f32)
		}
	}
	rel.release()
	return b
}

// srcs lists the sources in this rank's supernode when local, the
// others otherwise, ascending.
func (e *Exchange) srcs(local bool) []int {
	var srcs []int
	for s := range e.c.Size() {
		if e.local(s) == local {
			srcs = append(srcs, s)
		}
	}
	return srcs
}

// toMark runs the list past the mark that ends the local leg and files
// this rank's own block.
func (e *Exchange) toMark() {
	me := e.c.rank
	e.next = e.c.exec(e.seq, e.steps, e.next, coll.Mark, e) + 1
	e.in[me], e.out[me].payload = e.out[me], payload{}
	e.rel.add(e.in[me].payload, true)
}

// RecvLocal blocks for the cheap leg (self + same-supernode sources)
// and returns their tokens. Call exactly once, after Flush.
func (e *Exchange) RecvLocal() *RecvBuf {
	if !e.flushed || e.localDone {
		panic("mpi: Exchange.RecvLocal before Flush or twice")
	}
	e.localDone = true
	e.toMark()
	return e.assemble(e.srcs(true))
}

// RecvRemote blocks for the cross-supernode leg and returns its
// tokens. Call exactly once, after RecvLocal.
func (e *Exchange) RecvRemote() *RecvBuf {
	if !e.localDone || e.remoteDone {
		panic("mpi: Exchange.RecvRemote before RecvLocal or twice")
	}
	e.remoteDone = true
	e.c.exec(e.seq, e.steps, e.next, toEnd, e)
	return e.assemble(e.srcs(false))
}

// RecvAll completes both legs into one merged buffer covering every
// source — the blocking path.
func (e *Exchange) RecvAll() *RecvBuf {
	if !e.flushed || e.localDone || e.remoteDone {
		panic("mpi: Exchange.RecvAll before Flush or after a Recv")
	}
	e.localDone, e.remoteDone = true, true
	e.toMark()
	e.c.exec(e.seq, e.steps, e.next, toEnd, e)
	srcs := make([]int, e.c.Size())
	for i := range srcs {
		srcs[i] = i
	}
	return e.assemble(srcs)
}

// AllToAllv runs a blocking flattened exchange, hierarchical when
// Hierarchical reports true and direct otherwise.
func (c *Comm) AllToAllv(sb *SendBuf, codec Codec) *RecvBuf {
	return c.allToAllv(sb, codec, c.Hierarchical())
}

// AllToAllvDirect runs the blocking flat exchange.
func (c *Comm) AllToAllvDirect(sb *SendBuf, codec Codec) *RecvBuf {
	return c.allToAllv(sb, codec, false)
}

// AllToAllvHier runs the blocking hierarchical exchange.
func (c *Comm) AllToAllvHier(sb *SendBuf, codec Codec) *RecvBuf {
	return c.allToAllv(sb, codec, true)
}

func (c *Comm) allToAllv(sb *SendBuf, codec Codec, hier bool) *RecvBuf {
	e := c.BeginExchange(hier, codec)
	e.PostAll(sb)
	e.Flush()
	return e.RecvAll()
}
