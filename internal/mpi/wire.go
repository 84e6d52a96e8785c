package mpi

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"bagualu/internal/half"
	"bagualu/internal/simnet"
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
//     chunk then travels at 16 bits on every leg — the direct message,
//     or the member up-leg, leader X-leg and down-leg of the
//     hierarchical path, where leaders aggregate and scatter the bits
//     as they are — and is decoded once, in assemble. Chunks that stay
//     in their supernode travel as FP32.
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
	stepDirect = 0 // direct chunk (intra-supernode, or any in flat mode)
	stepUp     = 1 // member -> leader aggregation
	stepX      = 2 // leader -> leader cross-supernode
	stepDown   = 3 // leader -> member scatter
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
// hierarchical up- and down-legs that carry such elements at node and
// supernode level. Unlike World.Stats (global, atomic), WireStats is
// per-comm and owned by the comm's goroutine.
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

// Add accumulates o into w.
func (w *WireStats) Add(o WireStats) {
	for i := range w.Wire {
		w.Wire[i] += o.Wire[i]
		w.Raw[i] += o.Raw[i]
		w.Msgs[i] += o.Msgs[i]
	}
}

// TotalWire sums post-codec bytes over all levels.
func (w WireStats) TotalWire() int64 {
	var t int64
	for _, v := range w.Wire {
		t += v
	}
	return t
}

// InterBytes returns post-codec bytes on inter-supernode links.
func (w WireStats) InterBytes() int64 { return w.Wire[simnet.MachineLevel] }

// IntraBytes returns post-codec bytes below the inter-supernode tier
// (node + supernode links; self copies excluded).
func (w WireStats) IntraBytes() int64 {
	return w.Wire[simnet.NodeLevel] + w.Wire[simnet.SupernodeLevel]
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

// Count returns the number of floats destined to dst.
func (b *SendBuf) Count(dst int) int { return b.counts[dst] }

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

// payload is a run of exchanged elements in one wire width: float32,
// or FP16 bit patterns for a chunk bound for another supernode under
// FP16Wire. At most one of the slices is set.
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

// sub returns elements [lo, lo+n) of p as a view.
func (p payload) sub(lo, n int) payload {
	if p.u16 != nil {
		return payload{u16: p.u16[lo : lo+n]}
	}
	return payload{f32: p.f32[lo : lo+n]}
}

// append adds q's elements to p, in q's width.
func (p *payload) append(q payload) {
	p.f32 = append(p.f32, q.f32...)
	p.u16 = append(p.u16, q.u16...)
}

// pooled returns a copy of p in pooled buffers, for a staged message.
func (p payload) pooled() payload {
	q := newPayload(p.len(), p.u16 != nil)
	copy(q.f32, p.f32)
	copy(q.u16, p.u16)
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
// sequence. In hierarchical mode cross-supernode chunks are batched
// into one up-leg message to the supernode leader at Flush; leaders
// run the aggregate exchange inside RecvRemote.
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

	// Hierarchical mode: cross-supernode chunks buffered for the
	// up-leg in their wire width, framed as (dst, n, nmeta) triples.
	upHdr  []int
	up     payload
	upMeta []int

	// The communicator's supernode geometry: in hierarchical mode it
	// names the leaders, in both modes it splits local from remote.
	sn *supernodes
}

// BeginExchange opens a flattened all-to-allv on the communicator.
// hier selects the topology-aware path (cross-supernode chunks are
// aggregated at supernode leaders); it degrades to the flat direct
// protocol when the comm does not span supernodes. Every rank of the
// comm must call BeginExchange with the same arguments, in the same
// collective order.
func (c *Comm) BeginExchange(hier bool, codec Codec) *Exchange {
	g := c.supernodes()
	return &Exchange{
		c:      c,
		codec:  codec,
		hier:   hier && len(g.groups) > 1,
		seq:    c.nextSeq(),
		posted: make([]bool, c.Size()),
		sn:     g,
	}
}

// local reports whether comm rank q shares this rank's supernode: the
// split between RecvLocal and RecvRemote in both modes.
func (e *Exchange) local(q int) bool { return e.sn.of[q] == e.sn.j }

// leader returns the leader (lowest comm rank) of supernode j.
func (e *Exchange) leader(j int) int { return e.sn.groups[j][0] }

// Post stages the chunk destined to dst and, unless it is buffered
// for the hierarchical up-leg, sends it immediately. Under FP16Wire a
// chunk bound for another supernode is encoded here, the exchange's
// one encode site. The caller keeps ownership of data and meta (Post
// copies). Each destination may be posted at most once per exchange.
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

	up := e.hier && !e.local(dst)
	fp16 := e.codec == FP16Wire && !e.local(dst)
	var p payload
	if up {
		p = e.up.grow(len(data), fp16)
	} else {
		p = newPayload(len(data), fp16)
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
	case up:
		e.upHdr = append(e.upHdr, dst, len(data), len(meta))
		e.upMeta = append(e.upMeta, meta...)
	default:
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

// post sends one leg's message carrying the pooled payload p and books
// it: Wire is what p occupies on the link, Raw what FP32 would.
func (e *Exchange) post(dst, tag int, ints []int, p payload) {
	c := e.c
	m := message{tag: tag, ints: ints, data: p.f32, u16: p.u16, staged: true}
	c.accountWire(c.Topology().LevelOf(c.group[c.rank], c.group[dst]), m.nbytes(), 4*p.len()+8*len(ints))
	c.proc.post(c.group[dst], m)
}

// Flush completes the send side: destinations never posted get an
// empty chunk, and in hierarchical mode the batched cross-supernode
// up-leg is shipped to the supernode leader (leaders keep theirs for
// direct aggregation). After Flush the exchange's SendBuf may be
// released or reused.
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
	if e.hier && e.sn.pos != 0 {
		ints := frame(len(e.upHdr)/3, e.upHdr, e.upMeta)
		e.post(e.leader(e.sn.j), collTag(e.c.id, e.seq, stepUp), ints, e.up.pooled())
	}
}

// frame lays out an aggregated leg's ints: [k, hdr..., meta...], k
// entries of hdr followed by their concatenated metadata.
func frame(k int, hdr, meta []int) []int {
	ints := make([]int, 1+len(hdr)+len(meta))
	ints[0] = k
	copy(ints[1:], hdr)
	copy(ints[1+len(hdr):], meta)
	return ints
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
// site — then releases all staging buffers; a leg whose whole payload
// is one staged FP32 buffer (the self chunk of a one-rank exchange, for
// one) takes that buffer over uncopied.
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
	if r := *rel; len(r) == 1 && len(r[0].f32) == total && total > 0 {
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
func (e *Exchange) localSrcs() []int { return append([]int(nil), e.sn.groups[e.sn.j]...) }

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
// direct message from a same-supernode source.
func (e *Exchange) collectLocal(segs []seg, rel *relList) {
	segs[e.c.rank] = e.self
	rel.add(e.self.payload, true)
	e.self = seg{}
	for _, s := range e.sn.groups[e.sn.j] {
		if s == e.c.rank {
			continue
		}
		m := e.c.recvStep(s, collTag(e.c.id, e.seq, stepDirect))
		segs[s] = absorbDirect(m, rel)
	}
}

// collectRemote blocks for the cross-supernode leg. In flat mode that
// is a direct message per remote source; in hierarchical mode the
// leader absorbs member up-legs, runs the leader-to-leader exchange,
// and scatters down-legs, while non-leaders receive one down-leg from
// their leader. Every payload keeps the width Post gave it.
func (e *Exchange) collectRemote(segs []seg, rel *relList) {
	c := e.c
	if !e.hier {
		for _, s := range e.remoteSrcs() {
			m := c.recvStep(s, collTag(c.id, e.seq, stepDirect))
			segs[s] = absorbDirect(m, rel)
		}
		return
	}
	if e.sn.pos != 0 {
		m := c.recvStep(e.leader(e.sn.j), collTag(c.id, e.seq, stepDown))
		parseScatter(m, c.rank, segs, rel)
		return
	}
	e.leaderExchange(segs, rel)
}

// parseScatter splits a down-leg framed [k, (src, n, nmeta)×k,
// meta...] into segs; all payloads are views into one staged buffer,
// FP16 under FP16Wire, released once after assembly.
func parseScatter(m message, me int, segs []seg, rel *relList) {
	if len(m.ints) < 1 {
		panic("mpi: wire framing corrupt: scatter header missing")
	}
	k := m.ints[0]
	if k < 0 || len(m.ints) < 1+3*k {
		panic(fmt.Sprintf("mpi: wire framing corrupt: scatter header k=%d len=%d", k, len(m.ints)))
	}
	hdr := m.ints[1 : 1+3*k]
	meta := m.ints[1+3*k:]
	p := m.payload()
	offD, offM := 0, 0
	for i := 0; i < k; i++ {
		src, n, nm := hdr[3*i], hdr[3*i+1], hdr[3*i+2]
		if n < 0 || nm < 0 || offD+n > p.len() || offM+nm > len(meta) {
			panic("mpi: wire framing corrupt: scatter entry out of bounds")
		}
		segs[src] = seg{n: n, payload: p.sub(offD, n), meta: meta[offM : offM+nm]}
		offD += n
		offM += nm
	}
	rel.add(p, m.staged)
}

// leaderAgg accumulates chunks bound for one destination supernode,
// framed as (src, dst, n, nmeta) quads.
type leaderAgg struct {
	hdr  []int
	data payload
	meta []int
}

// leaderExchange runs the leader side of the hierarchical protocol:
// absorb up-legs (own buffered + members'), exchange aggregates
// pairwise with peer leaders, then scatter down-legs to members and
// keep this rank's own share in segs. Payloads are moved in the width
// they arrived in; nothing is decoded or re-encoded here.
func (e *Exchange) leaderExchange(segs []seg, rel *relList) {
	c := e.c
	members := e.sn.groups[e.sn.j]
	nl := len(e.sn.groups)
	aggs := make([]leaderAgg, nl)

	absorb := func(src, k int, hdr, meta []int, data payload) {
		offD, offM := 0, 0
		for i := 0; i < k; i++ {
			dst, n, nm := hdr[3*i], hdr[3*i+1], hdr[3*i+2]
			if n < 0 || nm < 0 || offD+n > data.len() || offM+nm > len(meta) {
				panic("mpi: wire framing corrupt: up-leg entry out of bounds")
			}
			a := &aggs[e.sn.of[dst]]
			a.hdr = append(a.hdr, src, dst, n, nm)
			a.data.append(data.sub(offD, n))
			a.meta = append(a.meta, meta[offM:offM+nm]...)
			offD += n
			offM += nm
		}
	}

	// Own cross-supernode chunks were buffered at Post time.
	absorb(c.rank, len(e.upHdr)/3, e.upHdr, e.upMeta, e.up)
	for _, mb := range members {
		if mb == c.rank {
			continue
		}
		m := c.recvStep(mb, collTag(c.id, e.seq, stepUp))
		if len(m.ints) < 1 {
			panic("mpi: wire framing corrupt: up-leg header missing")
		}
		k := m.ints[0]
		if k < 0 || len(m.ints) < 1+3*k {
			panic(fmt.Sprintf("mpi: wire framing corrupt: up-leg k=%d len=%d", k, len(m.ints)))
		}
		absorb(mb, k, m.ints[1:1+3*k], m.ints[1+3*k:], m.payload())
		if m.staged {
			m.payload().release()
		}
	}

	// Pairwise aggregate exchange between leaders.
	me := e.sn.j
	recvAgg := make([]leaderAgg, nl)
	tagX := collTag(c.id, e.seq, stepX)
	for s := 1; s < nl; s++ {
		dst := (me + s) % nl
		src := (me - s + nl) % nl
		a := &aggs[dst]
		e.post(e.leader(dst), tagX, frame(len(a.hdr)/4, a.hdr, a.meta), a.data.pooled())
		m := c.recvStep(e.leader(src), tagX)
		recvAgg[src] = e.parseX(m, rel)
	}
	recvAgg[me] = aggs[me] // chunks between members of this supernode never reach the X-leg; kept for symmetry

	// Scatter: regroup received aggregates per destination member.
	p := c.Size()
	downHdr := make([][]int, p)
	downData := make([]payload, p)
	downMeta := make([][]int, p)
	for li := range recvAgg {
		a := &recvAgg[li]
		offD, offM := 0, 0
		for i := 0; i < len(a.hdr); i += 4 {
			src, dst, n, nm := a.hdr[i], a.hdr[i+1], a.hdr[i+2], a.hdr[i+3]
			downHdr[dst] = append(downHdr[dst], src, n, nm)
			downData[dst].append(a.data.sub(offD, n))
			downMeta[dst] = append(downMeta[dst], a.meta[offM:offM+nm]...)
			offD += n
			offM += nm
		}
	}
	for _, mb := range members {
		if mb == c.rank {
			continue
		}
		ints := frame(len(downHdr[mb])/3, downHdr[mb], downMeta[mb])
		e.post(mb, collTag(c.id, e.seq, stepDown), ints, downData[mb].pooled())
	}
	// Own share stays local.
	hdr := downHdr[c.rank]
	meta := downMeta[c.rank]
	data := downData[c.rank]
	od, om := 0, 0
	for i := 0; i < len(hdr); i += 3 {
		src, n, nm := hdr[i], hdr[i+1], hdr[i+2]
		segs[src] = seg{n: n, payload: data.sub(od, n), meta: meta[om : om+nm]}
		od += n
		om += nm
	}
}

// parseX frames a received leader aggregate as views into its staged
// payload.
func (e *Exchange) parseX(m message, rel *relList) leaderAgg {
	if len(m.ints) < 1 {
		panic("mpi: wire framing corrupt: X-leg header missing")
	}
	k := m.ints[0]
	if k < 0 || len(m.ints) < 1+4*k {
		panic(fmt.Sprintf("mpi: wire framing corrupt: X-leg k=%d len=%d", k, len(m.ints)))
	}
	a := leaderAgg{hdr: m.ints[1 : 1+4*k], data: m.payload(), meta: m.ints[1+4*k:]}
	total := 0
	for i := 0; i < k; i++ {
		total += a.hdr[4*i+2]
	}
	if a.data.len() != total {
		panic(fmt.Sprintf("mpi: wire framing corrupt: X payload %d vs %d", a.data.len(), total))
	}
	rel.add(a.data, m.staged)
	return a
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
