// Package mpi is a message-passing runtime over goroutines that
// mirrors the MPI subset BaGuaLu uses: communicators with split,
// point-to-point send/recv, and the collectives (barrier, bcast,
// reduce, all-reduce, all-gather, reduce-scatter, all-to-all) with
// multiple algorithms including the hierarchical, topology-aware
// variants the paper contributes.
//
// Bytes move for real between rank goroutines; *time* is virtual.
// Every rank carries a logical clock, each message is priced by the
// simnet α–β hierarchy, and a receive advances the receiver's clock
// to the message's arrival time. A sender's injection is booked on its
// rank's ports, so communication issued as concurrent requests
// (Comm.Start, Comm.Defer) shares them honestly. Collective algorithms
// therefore exhibit the same relative costs as on the modeled machine,
// while the data path stays fully testable.
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bagualu/internal/metrics"
	"bagualu/internal/simnet"
)

// AnySource matches a message from any sender in Recv.
const AnySource = -1

// message is an in-flight transfer between ranks.
type message struct {
	src    int // global source rank
	tag    int
	data   []float32
	ints   []int
	u16    []uint16 // FP16-encoded payload (wire codec); priced 2 B/elem
	staged bool     // payload buffers are pooled; receiver must release
	arrive float64  // virtual arrival time at the destination

	// Link-telemetry fields (see transport.go): the sender's clock at
	// injection and the un-delayed wire cost, letting the receiver
	// compute the observed link slowdown.
	start   float64
	nominal float64

	// Fault-injection fields (see fail.go, transport.go): crc is the
	// payload checksum computed at send time when wire checking is
	// armed; dropped marks a tombstone for a payload the injector
	// destroyed; exhausted marks a tombstone from the reliable
	// transport giving up after attempts deliveries.
	crc       uint32
	checked   bool
	dropped   bool
	exhausted bool
	attempts  int
}

// nbytes prices the payload: float32 data, 8-byte ints, and 2-byte
// FP16 wire elements.
func (m *message) nbytes() int {
	return 4*len(m.data) + 8*len(m.ints) + 2*len(m.u16)
}

// closedWorldPanic marks the secondary panic a rank raises when its
// receive was unblocked by another rank's failure (closeAll); Run
// reports a root-cause panic in preference to these.
type closedWorldPanic string

// mailbox is the single-consumer message queue of one rank.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []message
	closed  bool

	// The owner's wait, for the world's quiescence rule (see take):
	// waiting while it is blocked with nothing deliverable, group and
	// born the communicator it waits on, and stuck once the world was
	// found quiescent during that wait.
	waiting bool
	group   []int
	born    int64
	stuck   bool

	w    *World // for failure detection inside the wait loop
	self int    // global rank this mailbox belongs to
}

func newMailbox(w *World, self int) *mailbox {
	b := &mailbox{w: w, self: self}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *mailbox) put(m message) {
	b.mu.Lock()
	b.pending = append(b.pending, m)
	b.wake()
	b.mu.Unlock()
	b.cond.Signal()
}

// wake takes the owner off the world's blocked count: something changed
// that it must look at. Called with b.mu held.
func (b *mailbox) wake() {
	if b.waiting {
		b.waiting = false
		b.w.ranks.Add(-1)
	}
}

// take blocks until a message matching (src, tag) is available and
// removes it. src may be AnySource.
//
// take is also the failure-detection point, and detection does not
// depend on goroutine scheduling. Pending messages are always drained
// first, so data that arrived before a crash is still delivered. Then
// this rank declared failed by its peers, or an awaited source that has
// failed, raises a typed *RankFailedError at once: that message can
// never come. A live source on a communicator a failure has touched
// (see lost) may still send, or may have abandoned the collective for
// recovery, so the wait holds until the whole world is quiescent —
// every running rank blocked with nothing deliverable — and only then
// fails. Every rank thus gets as far as its messages allow before it
// learns of the failure, whatever order the host ran the ranks in.
// (An AnySource receive has no source to wait for and fails at once.)
func (b *mailbox) take(src, tag int, group []int, born int64) message {
	b.mu.Lock()
	defer b.mu.Unlock()
	w := b.w
	for {
		for i := range b.pending {
			m := &b.pending[i]
			if (src == AnySource || m.src == src) && m.tag == tag {
				got := *m
				b.pending = append(b.pending[:i], b.pending[i+1:]...)
				b.stuck = false
				return got
			}
		}
		if b.closed {
			panic(closedWorldPanic(fmt.Sprintf("mpi: Recv(src=%d, tag=%d) on closed world", src, tag)))
		}
		if w.isFailed(b.self) {
			panic(&RankFailedError{Rank: b.self, Detector: b.self})
		}
		if src != AnySource && w.isFailed(src) {
			panic(&RankFailedError{Rank: src, Detector: b.self})
		}
		if b.stuck || src == AnySource {
			b.stuck = false
			if err := w.lost(group, born, b.self); err != nil {
				panic(err)
			}
		}
		b.waiting, b.group, b.born = true, group, born
		if w.countRanks(1) {
			// wakeStuck takes every box in turn, this one included.
			b.mu.Unlock()
			w.wakeStuck()
			b.mu.Lock()
		}
		if b.waiting { // nothing arrived and nothing stuck this wait meanwhile
			b.cond.Wait()
		}
		b.wake()
	}
}

// lost returns the error a receive on a communicator (group, born at
// failure count born) raises once nothing more can arrive on it: a
// failed member, or else — the transitive arm, ULFM's implicit revoke —
// a failure anywhere since the communicator was created, after which a
// peer may have abandoned the collective for recovery. Communicators
// created after the failure (ShrinkTo and its children) are untouched.
func (w *World) lost(group []int, born int64, self int) error {
	if w.failCount.Load() == 0 {
		return nil
	}
	for _, g := range group {
		if w.isFailed(g) {
			return &RankFailedError{Rank: g, Detector: self}
		}
	}
	if w.failCount.Load() > born {
		return &RevokedError{Detector: self}
	}
	return nil
}

// The world's rank counters, packed into one word so that every change
// returns a consistent snapshot: running rank goroutines above, those
// blocked in take with nothing deliverable below.
const runningOne = 1 << 32

// countRanks applies delta to the rank counters and reports whether
// the world is now quiescent with a failure on record: every running
// rank blocked, so nobody can send any more, and some of those waits
// may be hopeless. The caller then ends them with wakeStuck, holding no
// mailbox lock.
func (w *World) countRanks(delta int64) bool {
	v := w.ranks.Add(delta)
	running := v >> 32
	return running > 0 && v&(runningOne-1) == running && w.failCount.Load() > 0
}

// wakeStuck wakes, with stuck set, every rank blocked on a communicator
// a failure has touched. Nothing can reach those waits any more: every
// other rank was blocked too, and a rank it wakes only leaves the
// collective it was in. Waits on communicators born since are left
// alone.
func (w *World) wakeStuck() {
	for _, b := range w.boxes {
		b.mu.Lock()
		if b.waiting && w.lost(b.group, b.born, b.self) != nil {
			b.stuck = true
			b.wake()
			b.cond.Broadcast()
		}
		b.mu.Unlock()
	}
}

// Stats aggregates traffic counters across the run, split by
// hierarchy level. All fields are updated atomically; read them through
// Snapshot.
type Stats struct {
	Msgs  [4]atomic.Int64 // indexed by simnet.Level
	Bytes [4]atomic.Int64
}

// Snapshot copies the counters into an immutable simnet.Traffic
// value; subtract two snapshots to attribute traffic to a step or
// phase.
func (s *Stats) Snapshot() simnet.Traffic {
	var t simnet.Traffic
	for i := range s.Msgs {
		t.Msgs[i] = s.Msgs[i].Load()
		t.Bytes[i] = s.Bytes[i].Load()
	}
	return t
}

// World is a set of communicating ranks sharing a topology.
type World struct {
	size  int
	topo  *simnet.Topology
	boxes []*mailbox
	stats Stats

	// phases is each rank's record of where its virtual time went,
	// indexed by global rank and written only by that rank's goroutine.
	phases []metrics.PhaseMeter

	timeMu   sync.Mutex
	maxTime  float64
	finished bool

	// Fault-tolerance state (see fail.go): per-rank failed flags, the
	// straggler delay multipliers, the armed wire-fault hook with its
	// per-sender message counters, and the registry that hands every
	// survivor of a shrink the same fresh communicator id.
	failed    []atomic.Bool
	delayBits []atomic.Uint64 // per-rank link delay multiplier (float64 bits; 0 = 1.0)
	failMu    sync.Mutex      // orders failCount before failed in MarkFailed
	failCount atomic.Int64
	wireFault func(src, dst int, seq int64) WireFault
	wireSeq   []atomic.Int64
	transport *transport // reliable retransmit engine (nil = PR 3 fail-fast)
	linkObs   linkObs    // per-(receiver, sender) observed link multipliers

	shrinkMu   sync.Mutex
	shrinkIDs  map[string]int64
	nextShrink int64

	// Quiescence (see mailbox.take): the packed running/blocked rank
	// counters.
	ranks atomic.Int64
}

// NewWorld creates a world of size ranks priced by topo. A nil topo
// defaults to a uniform zero-cost network (pure functional mode).
func NewWorld(size int, topo *simnet.Topology) *World {
	if size <= 0 {
		panic(fmt.Sprintf("mpi: world size %d", size))
	}
	if topo == nil {
		topo = simnet.Uniform(0, 1<<40)
	}
	w := &World{
		size:       size,
		topo:       topo,
		boxes:      make([]*mailbox, size),
		phases:     make([]metrics.PhaseMeter, size),
		failed:     make([]atomic.Bool, size),
		delayBits:  make([]atomic.Uint64, size),
		wireSeq:    make([]atomic.Int64, size),
		nextShrink: shrinkIDBase,
	}
	// Observation rows themselves are allocated lazily by the owning
	// rank goroutine on first receive.
	w.linkObs.sum = make([][]float64, size)
	w.linkObs.cnt = make([][]float64, size)
	for i := range w.boxes {
		w.boxes[i] = newMailbox(w, i)
	}
	return w
}

// NewSelf returns the world communicator of a new one-rank world
// priced as NewWorld(1, nil) prices it, for single-rank code that never
// calls World.Run. Its exchanges are self copies that send no message
// and charge no clock. Like every Comm it belongs to one goroutine.
func NewSelf() *Comm { return newWorldComm(NewWorld(1, nil), 0, 0) }

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Stats returns the traffic counters.
func (w *World) Stats() *Stats { return &w.stats }

// Phases returns a rank's phase record (see Comm.Phases). Read it from
// that rank's goroutine, or after Run returns.
func (w *World) Phases(global int) *metrics.PhaseMeter { return &w.phases[global] }

// MaxTime returns the largest virtual completion time across ranks,
// valid after Run returns. This is the simulated makespan.
func (w *World) MaxTime() float64 {
	w.timeMu.Lock()
	defer w.timeMu.Unlock()
	return w.maxTime
}

// Run starts one goroutine per rank executing fn and waits for all
// of them. Each rank receives a world communicator. A panicking rank
// propagates its panic to the caller after the others are unblocked;
// when several ranks panic, the root cause is reported in preference
// to the secondary closed-world panics its unblocking provoked.
func (w *World) Run(fn func(c *Comm)) {
	var wg sync.WaitGroup
	panics := make([]any, w.size)
	w.ranks.Add(int64(w.size) * runningOne)
	// Every rank's world communicator is born now, however late its
	// goroutine starts.
	born := w.failCount.Load()
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if w.countRanks(-runningOne) {
					w.wakeStuck()
				}
			}()
			defer func() {
				if p := recover(); p != nil {
					panics[rank] = p
					// Unblock any rank waiting on us.
					w.closeAll()
				}
			}()
			c := newWorldComm(w, rank, born)
			fn(c)
			w.timeMu.Lock()
			if c.proc.now > w.maxTime {
				w.maxTime = c.proc.now
			}
			w.timeMu.Unlock()
		}(r)
	}
	wg.Wait()
	root := -1
	for r, p := range panics {
		if p == nil {
			continue
		}
		if root < 0 {
			root = r
		}
		if _, secondary := p.(closedWorldPanic); !secondary {
			root = r
			break
		}
	}
	if root >= 0 {
		panic(fmt.Sprintf("mpi: rank %d panicked: %v", root, panics[root]))
	}
}

func (w *World) closeAll() {
	for _, b := range w.boxes {
		b.mu.Lock()
		b.closed = true
		b.mu.Unlock()
		b.cond.Broadcast()
	}
}

// proc is the per-goroutine state of a rank: its global id, virtual
// clock, phase record and injection ports. All communicators of the
// same rank share it. While a request body runs (see request.go), now
// is the request's clock and lane the request; deferred holds the
// deferred requests not yet joined, in the order they were issued.
type proc struct {
	w        *World
	global   int
	now      float64
	phases   *metrics.PhaseMeter
	lane     *Request
	ports    [2]port
	deferred []*Request
}

// floor is the earliest clock any send from now on can start at: the
// rank's own clock, or while a request body runs the clock it started
// from — and never past the start of a deferred body still to run.
func (p *proc) floor() float64 {
	f := p.now
	if p.lane != nil {
		f = p.lane.start
	}
	if len(p.deferred) > 0 {
		f = min(f, p.deferred[0].start)
	}
	return f
}

// send moves a payload to dst (global rank), charging virtual time.
func (p *proc) send(dst, tag int, data []float32, ints []int) {
	p.post(dst, message{tag: tag, data: data, ints: ints})
}

// post is the general send primitive: it delivers a pre-built message
// (any payload combination, including FP16 wire data and pooled
// staging buffers) to dst, charging virtual time.
func (p *proc) post(dst int, m message) {
	if dst < 0 || dst >= p.w.size {
		panic(fmt.Sprintf("mpi: send to invalid rank %d (world size %d)", dst, p.w.size))
	}
	m.src = p.global
	n := m.nbytes()
	level := p.w.topo.LevelOf(p.global, dst)
	beta := p.w.topo.Beta[level]
	alpha := p.w.topo.Alpha[level]
	// Straggler model: a slow rank stretches every link it touches.
	if mult := p.w.linkDelay(p.global, dst); mult != 1 {
		beta *= mult
		alpha *= mult
	}
	start := p.now
	// The sender is occupied while its port injects the message; the
	// wire adds latency on top. Retransmissions (below) replay from the
	// NIC buffer and occupy neither.
	inject := float64(n) * beta
	if end, idle := p.ports[portOf(level)].reserve(start, inject, p.floor()); idle {
		p.now += inject
		m.arrive = start + alpha + inject
	} else {
		// Queued behind another request's bytes: the link itself is no
		// slower, so telemetry sees the injection as starting late.
		p.now = end
		m.arrive = end + alpha
		start = end - inject
	}
	m.start = start
	m.nominal = p.w.topo.Alpha[level] + float64(n)*p.w.topo.Beta[level]
	p.w.stats.Msgs[level].Add(1)
	p.w.stats.Bytes[level].Add(int64(n))
	// Sends to a failed rank vanish: the node is gone, nobody will
	// drain its mailbox. The sender still paid the injection time (it
	// cannot know yet).
	if p.w.isFailed(dst) {
		releaseStaged(&m)
		return
	}
	if p.w.wireFault != nil {
		if p.w.transport != nil {
			p.w.deliverReliable(&m, dst, n, level, alpha+float64(n)*beta)
		} else {
			p.w.injectWireFault(&m, dst)
		}
	}
	p.w.boxes[dst].put(m)
}

// recv blocks for a matching message and advances the clock to its
// arrival. group is the communicator group the receive belongs to
// (failure of any member aborts the wait; see mailbox.take). A
// message the fault injector destroyed surfaces as a typed
// *PayloadFaultError panic (catch with Protect).
func (p *proc) recv(src, tag int, group []int, born int64) message {
	if len(p.deferred) > 0 {
		defer p.dropDeferred()
	}
	m := p.w.boxes[p.global].take(src, tag, group, born)
	if m.arrive > p.now {
		p.now = m.arrive
	}
	if m.nominal > 0 && m.src != p.global {
		p.w.observeLink(p.global, m.src, (m.arrive-m.start)/m.nominal)
	}
	if m.dropped {
		panic(&PayloadFaultError{Src: m.src, Dst: p.global, Dropped: true,
			Exhausted: m.exhausted, Attempts: m.attempts})
	}
	if m.checked && payloadCRC(&m) != m.crc {
		panic(&PayloadFaultError{Src: m.src, Dst: p.global})
	}
	return m
}
