package mpi

import (
	"fmt"
	"math/bits"
	"slices"
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
//   - Exchange splits the collective into Post/Flush (eager sends) and
//     RecvLocal/RecvRemote, so the caller can run local expert compute
//     while cross-supernode traffic is in flight.
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

// Collective step numbers within one exchange's tag space.
const (
	stepDirect = 0 // direct chunk (flat mode)
	stepMerge  = 1 // hierarchical hop 1: one merged leg per same-supernode member
	stepRail   = 2 // hierarchical hop 2: rail forwarder -> cross-supernode destination
)

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

func (p payload) len() int { return len(p.f32) + len(p.u16) }

// grow extends p by n elements, FP16 when fp16 is set, and returns
// them as a view.
func (p *payload) grow(n int, fp16 bool) payload {
	if fp16 {
		p.u16 = slices.Grow(p.u16, n)[:len(p.u16)+n]
		return payload{u16: p.u16[len(p.u16)-n:]}
	}
	p.f32 = slices.Grow(p.f32, n)[:len(p.f32)+n]
	return payload{f32: p.f32[len(p.f32)-n:]}
}

// pooled returns a copy of p in pooled buffers, for a staged message.
func (p payload) pooled() payload {
	var q payload
	if p.f32 != nil {
		q.f32 = tensor.GetSlice(len(p.f32))
		copy(q.f32, p.f32)
	}
	if p.u16 != nil {
		q.u16 = getU16(len(p.u16))
		copy(q.u16, p.u16)
	}
	return q
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
//	ex.Post(dst, chunk, meta) for each destination   // eager sends
//	ex.Flush()                                        // nothing unsent remains
//	local := ex.RecvLocal()    // self + intra-supernode sources
//	... compute on local tokens while remote bytes fly ...
//	remote := ex.RecvRemote()  // cross-supernode sources
//
// or, when overlap is not wanted, RecvAll() for one merged buffer.
// All sends are eager (the simulated network buffers them), so any
// interleaving of compute between Flush and the Recv calls is
// deadlock-free; every rank of the communicator must run the same
// sequence.
//
// In hierarchical mode a supernode's cross traffic is sharded over its
// ranks by rail: rows bound for destination d in another supernode
// leave their source supernode j through j's member at position
// pos(d) mod |j|, d's rail (supernodes.rail). At Flush each rank sends
// every other member of its supernode one merged leg — the member's own
// chunk plus this rank's rows riding the member's rail. RecvLocal takes
// those legs and posts one rail leg to each cross destination this rank
// serves, carrying every source of its supernode; RecvRemote takes one
// rail leg from each other supernode.
type Exchange struct {
	c     *Comm
	codec Codec
	hier  bool
	seq   int64

	posted     []bool
	flushed    bool
	localDone  bool
	remoteDone bool

	// Self chunk, staged at Post so the caller's buffer is free.
	self seg // pooled payload

	// Hierarchical mode: the merged leg bound for each same-supernode
	// member (this rank's own entry holds the rows riding its own rail),
	// keyed by destination.
	legs []leg

	// The communicator's supernode geometry: in hierarchical mode it
	// names the rails, in both modes it splits local from remote. j is
	// this rank's supernode.
	sn *coll.Geometry
	j  int
}

// BeginExchange opens a flattened all-to-allv on the communicator.
// hier selects the topology-aware path (cross-supernode chunks are
// forwarded by rail, see Exchange); it degrades to the flat direct
// protocol when the comm does not span supernodes. Every rank of the
// comm must call BeginExchange with the same arguments, in the same
// collective order.
func (c *Comm) BeginExchange(hier bool, codec Codec) *Exchange {
	g := c.geometry()
	e := &Exchange{
		c:      c,
		codec:  codec,
		hier:   hier && len(g.Groups) > 1,
		seq:    c.nextSeq(),
		posted: make([]bool, c.Size()),
		sn:     g,
		j:      g.Of[c.rank],
	}
	if e.hier {
		e.legs = make([]leg, c.Size())
	}
	return e
}

// local reports whether comm rank q shares this rank's supernode: the
// split between RecvLocal and RecvRemote in both modes.
func (e *Exchange) local(q int) bool { return e.sn.Of[q] == e.j }

// fp16 reports whether chunks to or from comm rank q travel as FP16.
func (e *Exchange) fp16(q int) bool { return e.codec == FP16Wire && !e.local(q) }

// Post stages the chunk destined to dst and, in direct mode, sends it
// immediately; in hierarchical mode it joins the merged leg of dst, or
// of dst's rail forwarder when dst is in another supernode. Under
// FP16Wire a chunk bound for another supernode is encoded here, the
// exchange's one encode site. The caller keeps ownership of data and
// meta (Post copies). Each destination may be posted at most once per
// exchange.
func (e *Exchange) Post(dst int, data []float32, meta []int) {
	if e.flushed {
		panic("mpi: Exchange.Post after Flush")
	}
	if dst < 0 || dst >= e.c.Size() {
		panic(fmt.Sprintf("mpi: Exchange.Post to invalid rank %d", dst))
	}
	if e.posted[dst] {
		panic(fmt.Sprintf("mpi: Exchange.Post twice to rank %d", dst))
	}
	e.posted[dst] = true

	fp16 := e.fp16(dst)
	var p payload
	switch {
	case dst == e.c.rank || !e.hier:
		p = newPayload(len(data), fp16)
	default: // a same-supernode dst is its own rail
		p = e.legs[e.sn.Rail(e.j, dst)].grow(dst, len(data), meta, fp16)
	}
	if fp16 {
		half.EncodeSlice(p.u16, data)
	} else {
		copy(p.f32, data)
	}
	switch {
	case dst == e.c.rank:
		e.self = seg{n: len(data), payload: p, meta: append([]int(nil), meta...)}
		e.c.accountWire(simnet.SelfLevel, 4*len(data)+8*len(meta), 4*len(data)+8*len(meta))
	case !e.hier:
		e.sendDirect(dst, p, meta)
	}
}

// PostAll posts every destination chunk of a SendBuf.
func (e *Exchange) PostAll(sb *SendBuf) {
	for d := 0; d < e.c.Size(); d++ {
		e.Post(d, sb.Chunk(d), sb.Meta(d))
	}
}

// sendDirect frames one staged chunk as [n, nmeta, meta...] and posts
// it; the message takes over p's buffer.
func (e *Exchange) sendDirect(dst int, p payload, meta []int) {
	ints := make([]int, 2+len(meta))
	ints[0], ints[1] = p.len(), len(meta)
	copy(ints[2:], meta)
	e.post(dst, collTag(e.c.id, e.seq, stepDirect), ints, p)
}

// post sends one hop's message carrying the pooled payload p and books
// it: Wire is what p occupies on the link, Raw what FP32 would.
func (e *Exchange) post(dst, tag int, ints []int, p payload) {
	c := e.c
	m := message{tag: tag, ints: ints, data: p.f32, u16: p.u16, staged: true}
	c.accountWire(c.Topology().LevelOf(c.group[c.rank], c.group[dst]), m.nbytes(), 4*p.len()+8*len(ints))
	c.proc.post(c.group[dst], m)
}

// Flush completes the send side: destinations never posted get an
// empty chunk, and in hierarchical mode each other member of the
// supernode is sent its merged leg. After Flush the exchange's SendBuf
// may be released or reused.
func (e *Exchange) Flush() {
	if e.flushed {
		panic("mpi: Exchange.Flush twice")
	}
	for d := range e.posted {
		if !e.posted[d] {
			e.Post(d, nil, nil)
		}
	}
	e.flushed = true
	if e.hier {
		for _, q := range e.sn.Groups[e.j] {
			if q != e.c.rank {
				e.postLeg(q, stepMerge, e.legs[q])
			}
		}
	}
}

// leg is one hierarchical hop's message: entries (q, n, nmeta) in hdr,
// their elements in data, each in the width it travels (Exchange.fp16
// of q: a first-hop leg carries its destination's own chunk at FP32 and
// the rows riding its rail at codec width side by side), and their
// metadata concatenated. q is the entry's destination on the first hop
// and its source on the rail hop.
type leg struct {
	hdr  []int
	data payload
	meta []int
}

// grow appends an entry for q of n elements, FP16 when fp16 is set, and
// returns its elements as a view to fill.
func (l *leg) grow(q, n int, meta []int, fp16 bool) payload {
	l.hdr = append(l.hdr, q, n, len(meta))
	l.meta = append(l.meta, meta...)
	return l.data.grow(n, fp16)
}

// postLeg frames l as [k, (q, n, nmeta)×k, meta...] and sends it.
func (e *Exchange) postLeg(dst, step int, l leg) {
	ints := make([]int, 1+len(l.hdr)+len(l.meta))
	ints[0] = len(l.hdr) / 3
	copy(ints[1:], l.hdr)
	copy(ints[1+len(l.hdr):], l.meta)
	e.post(dst, collTag(e.c.id, e.seq, step), ints, l.data.pooled())
}

// recvLeg receives a leg postLeg framed and queues its staging buffers
// for release.
func (e *Exchange) recvLeg(src, step int, rel *relList) leg {
	m := e.c.recvStep(src, collTag(e.c.id, e.seq, step))
	if len(m.ints) < 1 || m.ints[0] < 0 || len(m.ints) < 1+3*m.ints[0] {
		panic(fmt.Sprintf("mpi: wire framing corrupt: leg header %d ints", len(m.ints)))
	}
	k := m.ints[0]
	rel.add(m.payload(), m.staged)
	return leg{hdr: m.ints[1 : 1+3*k], data: m.payload(), meta: m.ints[1+3*k:]}
}

// entries calls f with each of l's entries as a seg, a view into l in
// the width the entry travels.
func (e *Exchange) entries(l leg, f func(q int, s seg)) {
	var offF, offU, offM int
	for i := 0; i+3 <= len(l.hdr); i += 3 {
		q, n, nm := l.hdr[i], l.hdr[i+1], l.hdr[i+2]
		if q < 0 || q >= e.c.Size() {
			panic(fmt.Sprintf("mpi: wire framing corrupt: leg entry for rank %d", q))
		}
		fp16, left := e.fp16(q), len(l.data.f32)-offF
		if fp16 {
			left = len(l.data.u16) - offU
		}
		if n < 0 || n > left || nm < 0 || offM+nm > len(l.meta) {
			panic("mpi: wire framing corrupt: leg entry out of bounds")
		}
		s := seg{n: n, meta: l.meta[offM : offM+nm]}
		offM += nm
		if fp16 {
			s.u16, offU = l.data.u16[offU:offU+n], offU+n
		} else {
			s.f32, offF = l.data.f32[offF:offF+n], offF+n
		}
		f(q, s)
	}
	if offF != len(l.data.f32) || offU != len(l.data.u16) || offM != len(l.meta) {
		panic("mpi: wire framing corrupt: leg payload longer than its entries")
	}
}

// absorbDirect parses a [n, nmeta, meta...]-framed message into a seg
// and queues its staging buffer for release.
func absorbDirect(m message, rel *relList) seg {
	if len(m.ints) < 2 {
		panic("mpi: wire framing corrupt: direct header too short")
	}
	n, nmeta := m.ints[0], m.ints[1]
	if nmeta < 0 || len(m.ints) != 2+nmeta {
		panic(fmt.Sprintf("mpi: wire framing corrupt: meta count %d vs header %d", nmeta, len(m.ints)))
	}
	p := m.payload()
	if p.len() != n {
		panic(fmt.Sprintf("mpi: wire framing corrupt: payload %d vs count %d", p.len(), n))
	}
	rel.add(p, m.staged)
	return seg{n: n, payload: p, meta: m.ints[2 : 2+nmeta]}
}

// assemble copies segs (for the listed sources, ascending) into one
// flat pooled RecvBuf, decoding FP16 ones — the exchange's one decode
// site — then releases all staging buffers; a message whose whole
// payload is one staged FP32 buffer (the self chunk of a one-rank
// exchange, for one) takes that buffer over uncopied.
func (e *Exchange) assemble(segs []seg, srcs []int, rel *relList) *RecvBuf {
	p := e.c.Size()
	ints := make([]int, 2*p)
	b := &RecvBuf{
		counts: ints[:p:p],
		offs:   ints[p:],
		meta:   make([][]int, p),
		srcs:   srcs,
	}
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

// localSrcs / remoteSrcs partition the comm by this rank's supernode.
func (e *Exchange) localSrcs() []int { return append([]int(nil), e.sn.Groups[e.j]...) }

func (e *Exchange) remoteSrcs() []int {
	var srcs []int
	for s := 0; s < e.c.Size(); s++ {
		if !e.local(s) {
			srcs = append(srcs, s)
		}
	}
	return srcs
}

// collectLocal blocks for the cheap leg: the self chunk plus every
// same-supernode source's chunk. In hierarchical mode those arrive in
// the members' merged legs, whose other rows ride this rank's rail: it
// regroups them, with its own, into one rail leg per cross destination
// it serves, sources ascending, and sends them in the width they came.
func (e *Exchange) collectLocal(segs []seg, rel *relList) {
	me := e.c.rank
	segs[me] = e.self
	rel.add(e.self.payload, true)
	e.self = seg{}
	if !e.hier {
		for _, s := range e.sn.Groups[e.j] {
			if s != me {
				segs[s] = absorbDirect(e.c.recvStep(s, collTag(e.c.id, e.seq, stepDirect)), rel)
			}
		}
		return
	}
	rails := make([]leg, e.c.Size())
	for _, s := range e.sn.Groups[e.j] {
		if s != me { // the leg s sent replaces the one this rank sent s
			e.legs[s] = e.recvLeg(s, stepMerge, rel)
		}
		e.entries(e.legs[s], func(q int, sg seg) {
			if q == me {
				segs[s] = sg
				return
			}
			p := rails[q].grow(s, sg.n, sg.meta, sg.u16 != nil)
			copy(p.f32, sg.f32)
			copy(p.u16, sg.u16)
		})
	}
	for q := range rails {
		if !e.local(q) && e.sn.Rail(e.j, q) == me {
			e.postLeg(q, stepRail, rails[q])
		}
	}
}

// collectRemote blocks for the cross-supernode leg: a direct message
// per remote source in flat mode, in hierarchical mode one rail leg from
// each other supernode. Every payload keeps the width Post gave it.
func (e *Exchange) collectRemote(segs []seg, rel *relList) {
	c := e.c
	if !e.hier {
		for _, s := range e.remoteSrcs() {
			segs[s] = absorbDirect(c.recvStep(s, collTag(c.id, e.seq, stepDirect)), rel)
		}
		return
	}
	for j := range e.sn.Groups {
		if j != e.j {
			e.entries(e.recvLeg(e.sn.Rail(j, c.rank), stepRail, rel), func(q int, sg seg) { segs[q] = sg })
		}
	}
}

// RecvLocal blocks for the cheap leg (self + same-supernode sources)
// and returns their tokens. Call exactly once, after Flush.
func (e *Exchange) RecvLocal() *RecvBuf {
	if !e.flushed {
		panic("mpi: Exchange.RecvLocal before Flush")
	}
	if e.localDone {
		panic("mpi: Exchange.RecvLocal twice")
	}
	e.localDone = true
	segs := make([]seg, e.c.Size())
	var rel relList
	e.collectLocal(segs, &rel)
	return e.assemble(segs, e.localSrcs(), &rel)
}

// RecvRemote blocks for the cross-supernode leg and returns its
// tokens. Call exactly once, after RecvLocal.
func (e *Exchange) RecvRemote() *RecvBuf {
	if !e.localDone {
		panic("mpi: Exchange.RecvRemote before RecvLocal")
	}
	if e.remoteDone {
		panic("mpi: Exchange.RecvRemote twice")
	}
	e.remoteDone = true
	segs := make([]seg, e.c.Size())
	var rel relList
	e.collectRemote(segs, &rel)
	return e.assemble(segs, e.remoteSrcs(), &rel)
}

// RecvAll completes both legs into one merged buffer covering every
// source — the blocking path.
func (e *Exchange) RecvAll() *RecvBuf {
	if !e.flushed {
		panic("mpi: Exchange.RecvAll before Flush")
	}
	if e.localDone || e.remoteDone {
		panic("mpi: Exchange.RecvAll after RecvLocal/RecvRemote")
	}
	e.localDone, e.remoteDone = true, true
	segs := make([]seg, e.c.Size())
	var rel relList
	e.collectLocal(segs, &rel)
	e.collectRemote(segs, &rel)
	srcs := make([]int, e.c.Size())
	for i := range srcs {
		srcs[i] = i
	}
	return e.assemble(segs, srcs, &rel)
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
