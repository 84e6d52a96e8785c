package mpi

import (
	"fmt"
	"sort"

	"bagualu/internal/metrics"
	"bagualu/internal/simnet"
	"bagualu/internal/simnet/coll"
)

// Tag-space layout. Every message tag encodes the communicator id,
// whether it is point-to-point or collective traffic, and a sequence
// number, so concurrent communicators sharing a rank can never
// confuse each other's messages.
const (
	tagCommShift = 40
	tagP2PBit    = 1 << 39
	tagSeqShift  = 10 // low 10 bits are the step within a collective
)

// Comm is a communicator: an ordered group of ranks. Rank i of the
// communicator is the goroutine whose global rank is group[i].
// Communicators are created by World.Run (the world communicator) and
// Split. A Comm value is owned by one rank's goroutine and must not
// be shared across goroutines.
type Comm struct {
	proc  *proc
	group []int // comm rank -> global rank
	rank  int   // this process's rank within the comm
	id    int64 // communicator id for tag isolation
	seq   int64 // collective sequence number (advances in lockstep)
	born  int64 // world failure count at creation (implicit revocation)

	nextChildID int64 // id to assign at the next Split

	wire WireStats // flattened-exchange traffic staged by this comm
	vec  vec       // the running collective's cargo: a field, so exec takes it allocation-free

	// geo is the supernode geometry and lists the collectives' step
	// lists of this rank, built on first use (group and topology are
	// fixed for the comm's lifetime; a Comm is owned by one rank's
	// goroutine, so no locking is needed).
	geo   *coll.Geometry
	lists map[listKey][]coll.Step
}

// listKey names one of this rank's step lists.
type listKey struct {
	kind coll.Kind
	root int
}

// geometry returns the communicator's cached supernode geometry.
func (c *Comm) geometry() *coll.Geometry {
	if c.geo == nil {
		c.geo = coll.NewGeometry(c.Topology(), c.Size(), func(q int) int { return c.group[q] })
	}
	return c.geo
}

// list returns this rank's cached steps of kind k (root: Bcast and
// Reduce only).
func (c *Comm) list(k coll.Kind, root int) []coll.Step {
	key := listKey{k, root}
	l, ok := c.lists[key]
	if !ok {
		if c.lists == nil {
			c.lists = map[listKey][]coll.Step{}
		}
		l = c.geometry().List(k, c.rank, root)
		c.lists[key] = l
	}
	return l
}

// Supernodes returns the communicator's ranks grouped by supernode:
// groups[j] lists the comm ranks in supernode j ascending, supernodes in
// order of first appearance (so groups[j][0] ascends with j), and
// of[q] is the group of comm rank q. Both slices are shared and must not
// be modified.
func (c *Comm) Supernodes() (groups [][]int, of []int) {
	g := c.geometry()
	return g.Groups, g.Of
}

// Hierarchical reports whether the communicator's collectives take
// their topology-aware paths (coll.Geometry.Hierarchical): it spans more
// than one supernode and has at least 4 ranks. AllReduce, ShardBounds,
// ReduceScatterShard, AllGatherShard and AllToAllv all decide by it.
func (c *Comm) Hierarchical() bool { return c.geometry().Hierarchical() }

func newWorldComm(w *World, rank int, born int64) *Comm {
	group := make([]int, w.size)
	for i := range group {
		group[i] = i
	}
	return &Comm{
		proc:        &proc{w: w, global: rank, phases: &w.phases[rank]},
		group:       group,
		rank:        rank,
		id:          0,
		born:        born,
		nextChildID: 1,
	}
}

// Rank returns this process's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// Global returns the global (world) rank of comm rank r.
func (c *Comm) Global(r int) int { return c.group[r] }

// Topology returns the pricing topology.
func (c *Comm) Topology() *simnet.Topology { return c.proc.w.topo }

// Now returns this rank's virtual clock in seconds — inside a request
// body (Start), the request's clock.
func (c *Comm) Now() float64 { return c.proc.now }

// Phases returns this rank's phase record: the virtual seconds booked
// per phase (metrics.Phase*) since the world was created. Every
// communicator of the rank shares it — Split, Self and ShrinkTo
// children included — and only the rank's goroutine may use it.
// Compute books what it charges; a site that measures a clock delta
// (a blocking receive, a collective, a recovery) Observes it here.
func (c *Comm) Phases() *metrics.PhaseMeter { return c.proc.phases }

// Compute charges local computation time to the virtual clock and books
// the seconds charged under phase in the rank's record. The trainer
// uses it to account simulated GEMM time so that compute/communication
// overlap and breakdowns are meaningful. A straggler rank's charges are
// stretched by its delay multiplier: a slow node computes slowly, not
// just its links (this is what makes migrating work OFF a straggler
// worthwhile).
func (c *Comm) Compute(seconds float64, phase string) {
	if seconds < 0 {
		panic("mpi: negative compute time")
	}
	c.proc.inBody("Compute")
	d := seconds * c.proc.w.computeDelay(c.proc.global)
	c.proc.now += d
	c.proc.phases.Observe(phase, d)
}

// AdvanceTo moves this rank's virtual clock forward to absolute time t
// (no-op if the clock is already past it). Unlike Compute, the advance
// is NOT stretched by a straggler's delay multiplier: waiting for a
// wall-clock instant — an arrival, a restore deadline — takes the same
// time on a slow node as on a fast one.
func (c *Comm) AdvanceTo(t float64) {
	c.proc.inBody("AdvanceTo")
	if t > c.proc.now {
		c.proc.now = t
	}
}

// p2pTag builds the wire tag for a user point-to-point tag.
func (c *Comm) p2pTag(userTag int) int {
	if userTag < 0 || userTag >= tagP2PBit>>1 {
		panic(fmt.Sprintf("mpi: user tag %d out of range", userTag))
	}
	return int(c.id<<tagCommShift) | tagP2PBit | userTag
}

// collTag builds the wire tag for step within the collective
// identified by seq.
func collTag(id, seq int64, step int) int {
	if step < 0 || step >= 1<<tagSeqShift {
		panic(fmt.Sprintf("mpi: collective step %d out of range", step))
	}
	return int(id<<tagCommShift) | int(seq<<tagSeqShift) | step
}

// nextSeq advances the collective sequence number; all ranks of a
// communicator execute collectives in the same order, so the counters
// stay synchronized without communication.
func (c *Comm) nextSeq() int64 {
	s := c.seq
	c.seq++
	if c.seq >= 1<<(tagCommShift-tagSeqShift-1) {
		c.seq = 0
	}
	return s
}

// SendMsg delivers a combined float/int payload to comm rank dst with
// a user tag. It does not block (eager buffered semantics).
func (c *Comm) SendMsg(dst, tag int, data []float32, ints []int) {
	c.proc.post(c.group[dst], message{tag: c.p2pTag(tag), data: data, ints: ints})
}

// Recv blocks until a message with the tag from comm rank src
// arrives and returns its float payload. src may be AnySource.
func (c *Comm) Recv(src, tag int) []float32 {
	d, _ := c.RecvMsg(src, tag)
	return d
}

// RecvMsg blocks for a message and returns both payloads.
func (c *Comm) RecvMsg(src, tag int) ([]float32, []int) {
	gsrc := AnySource
	if src != AnySource {
		gsrc = c.group[src]
	}
	m := c.proc.recv(gsrc, c.p2pTag(tag), c.group, c.born)
	return m.data, m.ints
}

// Self returns a one-rank communicator holding only the caller, without
// communicating: its collectives return at once and it carries no
// message, so it shares c's id and takes none of c's child ids.
func (c *Comm) Self() *Comm {
	return &Comm{
		proc:  c.proc,
		group: []int{c.proc.global},
		id:    c.id,
		born:  c.proc.w.failCount.Load(),
	}
}

// Split partitions the communicator by color; ranks passing the same
// color form a new communicator ordered by (key, rank). Every rank of
// c must call Split. Ranks passing a negative color receive nil.
func (c *Comm) Split(color, key int) *Comm {
	// Allgather (color, key) using the existing collective machinery.
	mine := []int{color, key}
	all := c.AllGatherInts(mine)
	childID := c.nextChildID
	c.nextChildID++

	if color < 0 {
		return nil
	}
	type member struct{ color, key, rank int }
	var members []member
	for r := 0; r < c.Size(); r++ {
		col, k := all[2*r], all[2*r+1]
		if col == color {
			members = append(members, member{col, k, r})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].rank < members[j].rank
	})
	group := make([]int, len(members))
	myRank := -1
	for i, m := range members {
		group[i] = c.group[m.rank]
		if m.rank == c.rank {
			myRank = i
		}
	}
	return &Comm{
		proc:        c.proc,
		group:       group,
		rank:        myRank,
		id:          childID,
		born:        c.proc.w.failCount.Load(),
		nextChildID: childID<<8 + 1,
	}
}
