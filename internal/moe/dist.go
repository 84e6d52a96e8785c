package moe

import (
	"fmt"
	"time"

	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/tensor"
)

// A2AAlgo selects the all-to-all algorithm used for MoE dispatch and
// combine; Auto takes the hierarchical one when the communicator's
// Hierarchical reports true.
type A2AAlgo int

const (
	// Auto lets the communicator choose by topology.
	Auto A2AAlgo = iota
	// Direct sends one eager message per destination.
	Direct
	// Hierarchical sends each row across supernodes once, through the
	// member of its source supernode on its destination's rail, which
	// forwards it with its supernode's other rows for that destination
	// (the paper's algorithm, sharded over every rank).
	Hierarchical
)

// String names the algorithm.
func (a A2AAlgo) String() string {
	switch a {
	case Auto:
		return "auto"
	case Direct:
		return "direct"
	case Hierarchical:
		return "hierarchical"
	default:
		return fmt.Sprintf("A2AAlgo(%d)", int(a))
	}
}

// CommConfig selects the wire behavior of dispatch and combine.
type CommConfig struct {
	// Codec is the on-the-wire element encoding of token rows bound
	// for another supernode (mpi.FP32Wire or mpi.FP16Wire). Under
	// FP16Wire such a row is rounded once, where it is posted, and
	// travels at 16 bits on every leg of the exchange.
	Codec mpi.Codec
	// Overlap splits every dispatch-direction exchange into two
	// receive legs so local + shadowed expert compute runs while
	// cross-supernode tokens are still in flight.
	Overlap bool
}

// String renders "codec/blocking|overlap" for benchmark labels.
func (c CommConfig) String() string {
	mode := "blocking"
	if c.Overlap {
		mode = "overlap"
	}
	return c.Codec.String() + "/" + mode
}

// DistMoE is the MoE layer, expert-parallel at every size: the total
// expert pool is sharded evenly over the ranks of an expert-parallel
// communicator, and tokens travel to their experts (and back) through
// an all-to-all exchange each step. It implements nn.Layer for the
// local token batch. A single rank runs it on a one-rank communicator
// (NewLocalMoE), where the exchange is a self copy.
//
// Dispatch and combine run on the mpi wire layer: one flattened,
// pooled buffer per direction, expert-slot metadata riding inside the
// data messages, an optional FP16 codec on the inter-supernode legs,
// and (with CommCfg.Overlap) a two-phase receive that runs local and
// shadowed experts while remote tokens are in flight.
//
// Gate weights must be identical on every rank of the group (the
// trainer guarantees this by construction seed and by all-reducing
// gate gradients); each rank gates only its own tokens.
type DistMoE struct {
	Cfg          GateConfig
	Gate         *Gate
	Experts      []*nn.FeedForward // the local shard, ordered by global expert id
	LocalExperts int
	Algo         A2AAlgo
	CommCfg      CommConfig

	// SimRate, when positive, charges expert compute to the rank's
	// virtual clock at this many FLOP/s, so comm/compute overlap is
	// measurable in simulated time even on a single-core host.
	SimRate float64

	comm      *mpi.Comm
	name      string
	hidden    int
	perExpert int // parameter count of one expert FFN

	// Expert placement: which rank owns each expert, plus derived
	// lookup tables. Rebuilt by MigrateOpt.
	place       *Placement
	localGlobal []int // local slot -> global expert id
	slotOf      []int // global expert id -> local slot at its owner

	// group runs the whole local expert shard as one batched GEMM
	// call per phase (see nn.ExpertGroup); rebuilt lazily and dropped
	// whenever migration changes the shard.
	group *nn.ExpertGroup

	// Shadowed (locally replicated) hot experts; see shadow.go.
	shadows     map[int]*nn.FeedForward
	shadowList  []int
	shadowGroup *nn.ExpertGroup   // grouped view over the replicas, shadowList order
	shadowRefs  map[int][]sendRef // shadowed expert -> local (token, k) list
	shadowOuts  map[int]*tensor.Tensor
	shadowSt    *nn.GroupState
	shadowOff   []int

	// Time accumulates the per-phase wall-clock breakdown.
	Time Timing

	inferStats InferStats // last Infer call; see infer.go

	// Forward caches for backward; see dropForwardCaches. The gate's
	// routing holds each (token, k)'s combine weight.
	sendOrder [][]sendRef // per dst rank: which (token, k) produced row i
	// Per receive leg of the forward round trip (leg 1 is empty unless
	// overlap is on): the rows each local expert computed, and the
	// grouped FFN state of that pass (nil when the leg had no rows).
	ord [2][][]rowRef
	st  [2]*nn.GroupState
	// Combine results (y rows per source), kept until Backward needs
	// them for combine-weight gradients.
	comb [2]*mpi.RecvBuf

	wg *nn.WeightGrads // see DeferWeightGrads

	// report, when set, is told unit once the next backward has made the
	// experts' gradients final (see ReportExperts).
	report func(unit int)
	unit   int
}

// Timing accumulates wall-clock seconds per MoE phase across steps;
// the communication/computation breakdown experiment (R9) reads it.
// Dispatch/Combine include both training directions (forward traffic
// and its backward mirror). The expert GEMM time a layer charges to the
// virtual clock at SimRate is booked on its rank's phase record
// (metrics.PhaseCompute).
type Timing struct {
	Gate, Dispatch, Expert, Combine float64
}

// Add returns the fieldwise sum of two breakdowns (aggregating over
// the MoE layers of a model).
func (t Timing) Add(o Timing) Timing {
	t.Gate += o.Gate
	t.Dispatch += o.Dispatch
	t.Expert += o.Expert
	t.Combine += o.Combine
	return t
}

// Sub returns the fieldwise difference (the delta between two
// snapshots taken around a step).
func (t Timing) Sub(o Timing) Timing {
	t.Gate -= o.Gate
	t.Dispatch -= o.Dispatch
	t.Expert -= o.Expert
	t.Combine -= o.Combine
	return t
}

// mirrored swaps the dispatch and combine readings: the backward
// pass's outbound exchange is the combine's mirror and its return leg
// the dispatch's.
func (t Timing) mirrored() Timing {
	t.Dispatch, t.Combine = t.Combine, t.Dispatch
	return t
}

type sendRef struct{ token, k int }

type rowRef struct{ src, pos int } // src rank chunk, row position

// NewLocalMoE builds the layer for a single rank: every expert is
// local, on a one-rank communicator of its own (mpi.NewSelf), so
// dispatch and combine are self copies on no clock.
func NewLocalMoE(name string, r *tensor.RNG, cfg GateConfig, hidden int) *DistMoE {
	return NewDistMoE(name, r, cfg, hidden, mpi.NewSelf(), Auto)
}

// NewDistMoE shards cfg.NumExperts experts over comm with the default
// wire configuration (FP32, blocking). NumExperts must be divisible
// by the communicator size.
func NewDistMoE(name string, r *tensor.RNG, cfg GateConfig, hidden int, comm *mpi.Comm, algo A2AAlgo) *DistMoE {
	return NewDistMoEComm(name, r, cfg, hidden, comm, algo, CommConfig{})
}

// NewDistMoEComm is NewDistMoE with an explicit wire configuration.
func NewDistMoEComm(name string, r *tensor.RNG, cfg GateConfig, hidden int, comm *mpi.Comm, algo A2AAlgo, cc CommConfig) *DistMoE {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.NumExperts%comm.Size() != 0 {
		panic(fmt.Sprintf("moe: %d experts not divisible by %d ranks", cfg.NumExperts, comm.Size()))
	}
	le := cfg.NumExperts / comm.Size()
	m := &DistMoE{
		Cfg:          cfg,
		Gate:         NewGate(name+".gate", r, cfg),
		LocalExperts: le,
		Algo:         algo,
		CommCfg:      cc,
		comm:         comm,
		name:         name,
		hidden:       hidden,
		place:        NewBlockPlacement(cfg.NumExperts, comm.Size()),
	}
	// Every rank draws the full expert-init stream but keeps only its
	// shard, so expert e has identical weights no matter where it
	// lives — the property that makes checkpoints layout-independent.
	for e := 0; e < cfg.NumExperts; e++ {
		ex := nn.NewFeedForward(fmt.Sprintf("%s.expert%d", name, e), r, cfg.Dim, hidden)
		if e == 0 {
			m.perExpert = nn.NumParams(ex.Params())
		}
		if m.place.Owner[e] == comm.Rank() {
			m.Experts = append(m.Experts, ex)
		}
	}
	m.rebuildLookups()
	return m
}

// rebuildLookups refreshes the placement-derived tables after
// construction or migration.
func (m *DistMoE) rebuildLookups() {
	m.localGlobal = m.place.ExpertsOf(m.comm.Rank())
	m.slotOf = make([]int, m.Cfg.NumExperts)
	for r := 0; r < m.place.Ranks; r++ {
		for slot, e := range m.place.ExpertsOf(r) {
			m.slotOf[e] = slot
		}
	}
}

// Placement returns the current expert placement.
func (m *DistMoE) Placement() *Placement { return m.place }

// PerExpertParams returns the parameter count of a single expert FFN,
// independent of how many experts this rank currently hosts (a
// drained rank hosts none).
func (m *DistMoE) PerExpertParams() int { return m.perExpert }

// ownerOf returns the rank hosting expert e.
func (m *DistMoE) ownerOf(e int) int { return m.place.Owner[e] }

// dropForwardCaches forgets everything Forward left for Backward,
// including the grouped-GEMM view over the expert shard (it caches
// weight tensor slices). Called when migration or resharding changes
// the shard under them.
func (m *DistMoE) dropForwardCaches() {
	m.group = nil
	m.dropPass()
}

// dropPass releases the combine legs and drops the exchange caches.
func (m *DistMoE) dropPass() {
	m.sendOrder = nil
	m.ord, m.st = [2][][]rowRef{}, [2]*nn.GroupState{}
	releaseLegs(&m.comb)
}

// distStash is what DistMoE.Forward leaves for Backward. The combine
// legs' pooled receive buffers travel with it and are released by the
// backward that reads them; the experts' GELU outputs are rebuilt on
// restore.
type distStash struct {
	gate       gateStash
	sendOrder  [][]sendRef
	ord        [2][][]rowRef
	st         [2]*nn.GroupState
	comb       [2]*mpi.RecvBuf
	shadowRefs map[int][]sendRef
	shadowOuts map[int]*tensor.Tensor
	shadowSt   *nn.GroupState
	shadowOff  []int
}

// groupStates lists the pass's grouped FFN states, nil entries
// included.
func (s *distStash) groupStates() [3]*nn.GroupState {
	return [3]*nn.GroupState{s.st[0], s.st[1], s.shadowSt}
}

// Stash, Restore and Forget make DistMoE an nn.Stasher.
func (m *DistMoE) Stash() any {
	s := &distStash{
		gate: m.Gate.stash(), sendOrder: m.sendOrder, ord: m.ord, st: m.st, comb: m.comb,
		shadowRefs: m.shadowRefs, shadowOuts: m.shadowOuts, shadowSt: m.shadowSt, shadowOff: m.shadowOff,
	}
	for _, st := range s.groupStates() {
		if st != nil {
			st.DropAct()
		}
	}
	m.comb = [2]*mpi.RecvBuf{} // the legs leave with the stash, not for the pool
	m.Forget()
	return s
}

func (m *DistMoE) Restore(st any, x *tensor.Tensor) {
	s := st.(*distStash)
	for _, gs := range s.groupStates() {
		if gs != nil {
			gs.RebuildAct()
		}
	}
	m.Gate.restore(s.gate, x)
	m.sendOrder, m.ord, m.st, m.comb = s.sendOrder, s.ord, s.st, s.comb
	m.shadowRefs, m.shadowOuts, m.shadowSt, m.shadowOff = s.shadowRefs, s.shadowOuts, s.shadowSt, s.shadowOff
}

func (m *DistMoE) Forget() {
	m.Gate.forget()
	m.shadowRefs, m.shadowOuts, m.shadowSt, m.shadowOff = nil, nil, nil, nil
	m.dropPass()
}

// stageTokens fills the dispatch buffer: x's routed rows per
// destination in sendOrder order, each tagged with its expert's slot at
// the owner (one allocation holds every destination's tags).
func (m *DistMoE) stageTokens(sb *mpi.SendBuf, x *tensor.Tensor, sendOrder [][]sendRef, assign [][]Assignment) {
	n := 0
	for _, refs := range sendOrder {
		n += len(refs)
	}
	slots := make([]int, n)
	for dst, refs := range sendOrder {
		meta := slots[:len(refs):len(refs)]
		slots = slots[len(refs):]
		for i, ref := range refs {
			sb.Append(dst, x.Row(ref.token))
			meta[i] = m.slotOf[assign[ref.token][ref.k].Expert]
		}
		sb.SetMeta(dst, meta)
	}
}

// Forward gates local tokens, dispatches them to expert owners,
// applies the experts, and combines the returned outputs. With
// overlap on, the dispatch is two-phase: local-supernode tokens are
// absorbed and computed (along with shadowed experts) while the
// cross-supernode leg is still in flight.
func (m *DistMoE) Forward(x *tensor.Tensor) *tensor.Tensor {
	tokens, d := x.Shape[0], x.Shape[1]
	releaseLegs(&m.comb)
	if len(m.shadowList) > 0 {
		m.refreshShadows()
	}
	t0 := time.Now()
	routing := m.Gate.Forward(x)
	m.Time.Gate += time.Since(t0).Seconds()

	// Route: per-destination row lists; shadowed experts stay local.
	assign := routing.Assign
	m.sendOrder = m.sendLists(assign, func(a Assignment) bool { return !a.Dropped && !m.isShadowed(a.Expert) })
	m.shadowRefs = nil
	if len(m.shadowList) > 0 {
		m.shadowRefs = make(map[int][]sendRef)
		for t, as := range assign {
			for k, a := range as {
				if !a.Dropped && m.isShadowed(a.Expert) {
					m.shadowRefs[a.Expert] = append(m.shadowRefs[a.Expert], sendRef{t, k})
				}
			}
		}
	}

	m.st = [2]*nn.GroupState{}
	var rt Timing
	m.comb, rt = m.roundTrip(trip{
		sendOrder: m.sendOrder,
		stage:     func(sb *mpi.SendBuf) { m.stageTokens(sb, x, m.sendOrder, assign) },
		ord:       &m.ord,
		compute: func(l int, in *tensor.Tensor, off []int) *tensor.Tensor {
			if m.group == nil {
				m.group = nn.NewExpertGroup(m.Experts)
			}
			y, st := m.group.Forward(in, off)
			m.st[l] = st
			return y
		},
		window: func() { m.forwardShadows(x) },
	})
	m.Time = m.Time.Add(rt)

	out := tensor.New(tokens, d)
	for dst, refs := range m.sendOrder {
		for i, ref := range refs {
			tensor.Axpy(out.Row(ref.token), m.legRow(&m.comb, dst, i, d), assign[ref.token][ref.k].Weight)
		}
	}
	for _, e := range m.shadowList {
		for i, ref := range m.shadowRefs[e] {
			tensor.Axpy(out.Row(ref.token), m.shadowOuts[e].Row(i), assign[ref.token][ref.k].Weight)
		}
	}
	return out
}

// sendLists lists, per destination rank, the (token, k) of every
// assignment keep accepts, in token order, each list sized exactly and
// cut from one allocation.
func (m *DistMoE) sendLists(assign [][]Assignment, keep func(Assignment) bool) [][]sendRef {
	rows := make([]int, m.comm.Size())
	for _, as := range assign {
		for _, a := range as {
			if keep(a) {
				rows[m.ownerOf(a.Expert)]++
			}
		}
	}
	lists := carve[sendRef](rows)
	for t, as := range assign {
		for k, a := range as {
			if keep(a) {
				dst := m.ownerOf(a.Expert)
				lists[dst] = append(lists[dst], sendRef{t, k})
			}
		}
	}
	return lists
}

// carve returns one empty slice of capacity sizes[i] per entry, all cut
// from one backing array.
func carve[T any](sizes []int) [][]T {
	total := 0
	for _, n := range sizes {
		total += n
	}
	flat := make([]T, total)
	out := make([][]T, len(sizes))
	for i, n := range sizes {
		out[i] = flat[:0:n]
		flat = flat[n:]
	}
	return out
}

// forwardShadows applies the shadow replicas to the local tokens routed
// to them, as their own grouped FFN call in shadowList order. It runs
// inside the dispatch's in-flight window and involves no all-to-all.
func (m *DistMoE) forwardShadows(x *tensor.Tensor) {
	m.shadowOuts, m.shadowSt = nil, nil
	n := len(m.shadowList)
	if n == 0 {
		return
	}
	m.shadowOuts = make(map[int]*tensor.Tensor, n)
	soff := make([]int, n+1)
	srows := 0
	for i, e := range m.shadowList {
		soff[i] = srows
		srows += len(m.shadowRefs[e])
	}
	soff[n] = srows
	m.shadowOff = soff
	if srows == 0 {
		return
	}
	in := tensor.New(srows, x.Shape[1])
	row := 0
	for _, e := range m.shadowList {
		for _, ref := range m.shadowRefs[e] {
			copy(in.Row(row), x.Row(ref.token))
			row++
		}
	}
	y, st := m.shadowGroup.Forward(in, soff)
	m.shadowSt = st
	for i, e := range m.shadowList {
		if soff[i+1] > soff[i] {
			m.shadowOuts[e] = y.RowsView(soff[i], soff[i+1])
		}
	}
}

// Backward runs the reverse round trip: output gradients travel to the
// expert owners (two-phase under overlap, mirroring the forward
// dispatch — expert backward for local-leg rows runs while
// cross-supernode gradients are in flight), expert backward produces
// input gradients, and those return to the token owners. Gate
// gradients stay local.
func (m *DistMoE) Backward(dout *tensor.Tensor) *tensor.Tensor {
	tokens, d := dout.Shape[0], dout.Shape[1]

	// Combine-weight gradients for the gate, per token over one flat
	// buffer, and ŵ-scaled output gradients for the experts.
	assign := m.Gate.routing.Assign
	n := 0
	for _, as := range assign {
		n += len(as)
	}
	flat := make([]float32, n)
	dWeights := make([][]float32, tokens)
	for t, as := range assign {
		dWeights[t], flat = flat[:len(as):len(as)], flat[len(as):]
	}
	stage := func(sb *mpi.SendBuf) {
		for dst, refs := range m.sendOrder {
			chunk := sb.Chunk(dst)
			for i, ref := range refs {
				w := assign[ref.token][ref.k].Weight
				y := m.legRow(&m.comb, dst, i, d)
				g := dout.Row(ref.token)
				var dw float64
				dyRow := chunk[i*d : (i+1)*d]
				for j := range g {
					dw += float64(g[j]) * float64(y[j])
					dyRow[j] = w * g[j]
				}
				dWeights[ref.token][ref.k] = float32(dw)
			}
		}
	}
	// Shadow assignments: combine-weight grads from the cached local
	// outputs, staged into one flat dy for the grouped replica
	// backward (same row order as the shadow forward).
	var shadowDy *tensor.Tensor
	if m.shadowSt != nil {
		shadowDy = tensor.New(m.shadowSt.Rows(), d)
		for i, e := range m.shadowList {
			base := m.shadowOff[i]
			for j, ref := range m.shadowRefs[e] {
				w := assign[ref.token][ref.k].Weight
				y := m.shadowOuts[e].Row(j)
				g := dout.Row(ref.token)
				var dw float64
				dyRow := shadowDy.Row(base + j)
				for c := range g {
					dw += float64(g[c]) * float64(y[c])
					dyRow[c] = w * g[c]
				}
				dWeights[ref.token][ref.k] = float32(dw)
			}
		}
	}

	ret, rt := m.roundTrip(trip{
		sendOrder: m.sendOrder,
		stage:     stage,
		ord:       &m.ord,
		backward:  true,
		compute: func(l int, dy *tensor.Tensor, _ []int) *tensor.Tensor {
			return m.group.Backward(dy, m.st[l], m.expertWG())
		},
		final: len(m.shadowList) == 0,
	})
	m.Time = m.Time.Add(rt.mirrored())

	dx := tensor.New(tokens, d)
	for dst, refs := range m.sendOrder {
		for i, ref := range refs {
			tensor.Axpy(dx.Row(ref.token), m.legRow(&ret, dst, i, d), 1)
		}
	}
	releaseLegs(&ret)

	// Shadow replicas: grouped local backward, then gradients reduced
	// to the expert's owner.
	if shadowDy != nil {
		dxe := m.shadowGroup.Backward(shadowDy, m.shadowSt, nil)
		for i, e := range m.shadowList {
			base := m.shadowOff[i]
			for j, ref := range m.shadowRefs[e] {
				tensor.Axpy(dx.Row(ref.token), dxe.Row(base+j), 1)
			}
		}
	}
	if len(m.shadowList) > 0 {
		// The owners' expert gradients are final once the replicas'
		// have reached them.
		m.reduceShadowGrads()
		m.expertsDone()
	}

	tensor.AddInPlace(dx, m.Gate.Backward(dWeights))
	releaseLegs(&m.comb)
	return dx
}

// ReportExperts makes DistMoE an nn.ExpertReporter. Its expert
// gradients are final right after the reverse round trip's expert
// compute, before the blocking return leg and the gate's backward — or,
// with shadow replicas, once their gradients have reached the owners.
// Under DeferWeightGrads they are final only when the recorded products
// run, so a split backward's caller reports them itself.
func (m *DistMoE) ReportExperts(report func(unit int), unit int) {
	m.report, m.unit = report, unit
}

// expertsDone makes the report ReportExperts armed, once.
func (m *DistMoE) expertsDone() {
	if r := m.report; r != nil {
		m.report = nil
		r(m.unit)
	}
}

// DeferWeightGrads makes Backward record the gate projection's and
// the experts' weight-gradient products into w (nil: run them), and
// leave the weight half of the expert backward's virtual-clock charge
// for when they run.
func (m *DistMoE) DeferWeightGrads(w *nn.WeightGrads) {
	m.wg = w
	m.Gate.Proj.DeferWeightGrads(w)
}

// expertWG is where the expert backward's weight products go: nowhere
// deferred while shadow replicas are on, since their gradients reduce
// onto the owners inside Backward, after every product has run.
func (m *DistMoE) expertWG() *nn.WeightGrads {
	if len(m.shadowList) > 0 {
		return nil
	}
	return m.wg
}

// Params returns the gate and the *local* expert shard. Gate
// parameters are replicated (all-reduce their grads); expert
// parameters are sharded (no all-reduce across the expert-parallel
// group).
func (m *DistMoE) Params() []*nn.Param {
	ps := m.Gate.Params()
	for _, e := range m.Experts {
		ps = append(ps, e.Params()...)
	}
	return ps
}

// ShardedParams returns the parameters owned exclusively by this rank
// (its experts).
func (m *DistMoE) ShardedParams() []*nn.Param {
	var ps []*nn.Param
	for _, e := range m.Experts {
		ps = append(ps, e.Params()...)
	}
	return ps
}

// SetGradScale forwards the gradient scale to the gate (see
// Gate.SetGradScale).
func (m *DistMoE) SetGradScale(s float32) { m.Gate.SetGradScale(s) }

// AuxLoss returns the gate's load-balance loss for the last batch.
func (m *DistMoE) AuxLoss() float32 {
	if m.Gate.routing == nil {
		return 0
	}
	return m.Gate.routing.AuxLoss
}

// LastRouting exposes the last routing decisions.
func (m *DistMoE) LastRouting() *Routing { return m.Gate.routing }
