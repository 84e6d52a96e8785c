package mpi

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"sort"

	"bagualu/internal/tensor"
)

// Failure model. BaGuaLu-scale machines (96,000 nodes) see node loss
// as a routine event, so the simulated runtime needs a fail-stop
// story: a rank can be declared failed, at which point
//
//   - every peer blocked (or later blocking) on a receive from it gets
//     a typed *RankFailedError instead of hanging forever — the
//     simulated analogue of a per-exchange deadline/heartbeat detector
//     (the shared failed bitmap plays the role of the heartbeat
//     channel; the mailbox condition broadcast is the timeout firing);
//   - sends to it evaporate (its mailbox will never be drained);
//   - survivors can re-form a communicator over the remaining ranks
//     with ShrinkTo, without any collective involving the dead rank.
//
// Link faults (payloads corrupted or destroyed in flight by the fault
// injector) surface as *PayloadFaultError; recovery layers typically
// convert them to fail-stop of the sending rank, as real systems do.
// Both error types escape blocking calls as panics — wrap the
// communication-bearing region in Protect to receive them as errors.

// RankFailedError reports that a collective or receive involved a
// rank that has been declared failed.
type RankFailedError struct {
	Rank     int // global rank that failed
	Detector int // global rank that observed the failure
}

func (e *RankFailedError) Error() string {
	return fmt.Sprintf("mpi: rank %d failed (detected by rank %d)", e.Rank, e.Detector)
}

// RevokedError reports that a communicator was implicitly revoked: a
// rank failed somewhere in the world AFTER the communicator was
// created, and this rank was blocked in (or later entered) a receive
// on it. This is the transitive arm of failure detection — the ULFM
// revoke, triggered automatically. A survivor whose own groups exclude
// the dead rank can still be waiting on a peer that detected the
// failure directly and abandoned the collective for recovery; without
// revocation it would hang forever. Pipelined grids hit this
// routinely: a stage-local gradient all-reduce shares no rank with a
// dead pipeline column peer. Communicators created after the failure
// (ShrinkTo and its Splits) carry a fresh failure-count stamp and are
// unaffected until the NEXT failure.
type RevokedError struct {
	Detector int // global rank whose receive observed the revocation
}

func (e *RevokedError) Error() string {
	return fmt.Sprintf("mpi: communicator revoked by a failure elsewhere (rank %d unblocked)", e.Detector)
}

// PayloadFaultError reports a message destroyed or corrupted on the
// wire by the fault injector, caught by the per-message checksum.
// With reliable transport enabled (see transport.go) transient faults
// are absorbed by retransmission and never surface; an error that
// does surface then carries Exhausted=true — the frame burned its
// whole retry budget, evidence of a persistently lying link rather
// than a transient glitch.
type PayloadFaultError struct {
	Src, Dst  int
	Dropped   bool // true: payload destroyed; false: bits flipped
	Exhausted bool // reliable transport gave up after Attempts deliveries
	Attempts  int  // delivery attempts made (0 when transport disabled)
}

func (e *PayloadFaultError) Error() string {
	kind := "corrupted"
	if e.Dropped {
		kind = "dropped"
	}
	if e.Exhausted {
		return fmt.Sprintf("mpi: payload from rank %d to rank %d %s on the wire (%d delivery attempts exhausted)",
			e.Src, e.Dst, kind, e.Attempts)
	}
	return fmt.Sprintf("mpi: payload from rank %d to rank %d %s on the wire", e.Src, e.Dst, kind)
}

// Protect runs fn and converts a rank-failure or wire-fault panic
// escaping it into the corresponding typed error. All other panics
// propagate unchanged. This is the boundary a fault-tolerant training
// loop wraps around each step.
func Protect(fn func()) (err error) {
	defer func() {
		switch p := recover().(type) {
		case nil:
		case *RankFailedError:
			err = p
		case *RevokedError:
			err = p
		case *PayloadFaultError:
			err = p
		default:
			panic(p)
		}
	}()
	fn()
	return nil
}

// MarkFailed declares a global rank failed (fail-stop) and wakes every
// blocked receiver so detection is immediate. Idempotent; callable
// from any rank goroutine.
func (w *World) MarkFailed(global int) {
	if global < 0 || global >= w.size {
		panic(fmt.Sprintf("mpi: MarkFailed(%d) out of range", global))
	}
	// The count moves before the flag shows, so whoever sees a rank
	// failed also sees it counted — the birth stamp of a communicator
	// shrunk around it included.
	w.failMu.Lock()
	already := w.failed[global].Load()
	if !already {
		w.failCount.Add(1)
		w.failed[global].Store(true)
	}
	w.failMu.Unlock()
	if already {
		return
	}
	for _, b := range w.boxes {
		b.mu.Lock()
		b.mu.Unlock() //nolint:staticcheck // pairing orders the flag before the wakeup
		b.cond.Broadcast()
	}
}

// isFailed reports whether a global rank has been declared failed.
func (w *World) isFailed(global int) bool { return w.failed[global].Load() }

// Failed lists the global ranks currently declared failed, ascending.
func (w *World) Failed() []int {
	var out []int
	for r := 0; r < w.size; r++ {
		if w.isFailed(r) {
			out = append(out, r)
		}
	}
	return out
}

// Alive reports whether a global rank has not been declared failed.
func (w *World) Alive(global int) bool { return !w.isFailed(global) }

// SetRankDelay installs a straggler multiplier on a rank. A straggler
// is a slow NODE, not just a slow NIC: every message it sends or
// receives is priced at mult times the normal α–β cost, and local
// compute charged through Comm.Compute is stretched by the same
// factor. mult < 1 is rejected; 1 restores full speed. Safe to call
// concurrently with traffic.
func (w *World) SetRankDelay(global int, mult float64) {
	if global < 0 || global >= w.size {
		panic(fmt.Sprintf("mpi: SetRankDelay(%d) out of range", global))
	}
	if mult < 1 {
		panic(fmt.Sprintf("mpi: straggler multiplier %g < 1", mult))
	}
	w.delayBits[global].Store(math.Float64bits(mult))
}

// computeDelay returns a rank's own slowdown multiplier, applied to
// its local compute charges.
func (w *World) computeDelay(global int) float64 {
	if b := w.delayBits[global].Load(); b != 0 {
		return math.Float64frombits(b)
	}
	return 1
}

// linkDelay returns the effective multiplier for a (src, dst) link:
// the slower endpoint dominates.
func (w *World) linkDelay(src, dst int) float64 {
	m := 1.0
	if b := w.delayBits[src].Load(); b != 0 {
		m = math.Float64frombits(b)
	}
	if b := w.delayBits[dst].Load(); b != 0 {
		if v := math.Float64frombits(b); v > m {
			m = v
		}
	}
	return m
}

// WireFault is the injector's verdict on one message.
type WireFault int

const (
	// WireOK delivers the message untouched.
	WireOK WireFault = iota
	// WireCorrupt flips payload bits; the receiver's checksum catches it.
	WireCorrupt
	// WireDrop destroys the payload; the receiver gets a tombstone.
	WireDrop
)

// SetWireFaultFn arms wire-fault injection: fn is consulted for every
// posted message with the sender's global rank, the destination, and
// the sender-local message sequence number (deterministic per sender,
// so a seeded injector yields a reproducible fault schedule). Arming
// also enables per-message payload checksums so corruption is
// detected at the receiver. Install before Run; fn must be safe for
// concurrent calls from all rank goroutines.
func (w *World) SetWireFaultFn(fn func(src, dst int, seq int64) WireFault) {
	w.wireFault = fn
}

// injectWireFault checksums m and applies the injector's verdict.
func (w *World) injectWireFault(m *message, dst int) {
	seq := w.wireSeq[m.src].Add(1) - 1
	verdict := w.wireFault(m.src, dst, seq)
	m.crc = payloadCRC(m)
	m.checked = true
	switch verdict {
	case WireCorrupt:
		// Corrupt a copy: non-staged payloads may alias sender-owned
		// memory, and pooled staged buffers are released normally by
		// the receiver, so the tombstoned copy is plain GC'd memory.
		switch {
		case len(m.data) > 0:
			cp := append([]float32(nil), m.data...)
			releaseStaged(m)
			cp[len(cp)/2] = float32(math.Float32frombits(math.Float32bits(cp[len(cp)/2]) ^ 0x00400001))
			m.data, m.staged = cp, false
		case len(m.u16) > 0:
			cp := append([]uint16(nil), m.u16...)
			releaseStaged(m)
			cp[len(cp)/2] ^= 0x0101
			m.u16, m.staged = cp, false
		case len(m.ints) > 0:
			m.ints = append([]int(nil), m.ints...)
			m.ints[len(m.ints)/2] ^= 1
		}
	case WireDrop:
		releaseStaged(m)
		m.data, m.u16, m.ints = nil, nil, nil
		m.staged = false
		m.dropped = true
	}
}

// releaseStaged returns a message's pooled staging buffers.
func releaseStaged(m *message) {
	if !m.staged {
		return
	}
	if m.data != nil {
		tensor.PutSlice(m.data)
		m.data = nil
	}
	if m.u16 != nil {
		putU16(m.u16)
		m.u16 = nil
	}
}

// payloadCRC hashes every payload kind of a message: the little-endian
// bytes of data, then u16, then ints (as 64-bit), encoded a chunk at a
// time so crc32.Update runs its bulk kernel.
func payloadCRC(m *message) uint32 {
	var crc uint32
	var buf [4096]byte
	for data := m.data; len(data) > 0; {
		n := min(len(data), len(buf)/4)
		for i, v := range data[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf[:4*n])
		data = data[n:]
	}
	for u16 := m.u16; len(u16) > 0; {
		n := min(len(u16), len(buf)/2)
		for i, v := range u16[:n] {
			binary.LittleEndian.PutUint16(buf[2*i:], v)
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf[:2*n])
		u16 = u16[n:]
	}
	for ints := m.ints; len(ints) > 0; {
		n := min(len(ints), len(buf)/8)
		for i, v := range ints[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(v))
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf[:8*n])
		ints = ints[n:]
	}
	return crc
}

// Abandon declares this rank failed — the simulated crash. The caller
// must return from its rank function immediately afterwards; peers
// observe the failure through their next receive involving this rank.
func (c *Comm) Abandon() {
	c.proc.w.MarkFailed(c.proc.global)
}

// Survivors lists the global ranks of this communicator not declared
// failed, in group order.
func (c *Comm) Survivors() []int {
	var out []int
	for _, g := range c.group {
		if !c.proc.w.isFailed(g) {
			out = append(out, g)
		}
	}
	return out
}

// shrinkIDBase keeps shrink communicator ids disjoint from the Split
// id space (world 0, children small ints, 8 bits per nesting level).
// A shrunk comm consumes 12 bits, leaving two further Split levels
// inside the 23-bit id budget of the tag layout.
const shrinkIDBase = 1 << 12

// shrinkID hands every survivor asking for the same (parent, keep)
// shrink the same fresh communicator id, without communication.
func (w *World) shrinkID(parent int64, keep []int) int64 {
	key := fmt.Sprintf("%d|%v", parent, keep)
	w.shrinkMu.Lock()
	defer w.shrinkMu.Unlock()
	if w.shrinkIDs == nil {
		w.shrinkIDs = make(map[string]int64)
	}
	if id, ok := w.shrinkIDs[key]; ok {
		return id
	}
	id := w.nextShrink
	w.nextShrink++
	w.shrinkIDs[key] = id
	return id
}

// wireEpochBits is the width of the per-epoch part of a sender's wire
// sequence number; ShrinkTo bumps the bits above it.
const wireEpochBits = 32

// ShrinkTo builds a communicator over a subset of this one's ranks
// WITHOUT any collective call — the dead cannot participate in their
// own exclusion. keep lists the global ranks to retain (any order; it
// must be a subset of the group and contain the caller). Every kept
// rank must call ShrinkTo with the same set; the world hands them all
// the same fresh communicator id, so stale messages from collectives
// aborted by the failure can never alias the new tag space.
func (c *Comm) ShrinkTo(keep []int) *Comm {
	inGroup := make(map[int]int, len(c.group))
	for i, g := range c.group {
		inGroup[g] = i
	}
	ks := append([]int(nil), keep...)
	sort.Ints(ks)
	group := make([]int, 0, len(ks))
	newRank := -1
	for i, g := range ks {
		if i > 0 && g == ks[i-1] {
			panic(fmt.Sprintf("mpi: ShrinkTo duplicate rank %d", g))
		}
		if _, ok := inGroup[g]; !ok {
			panic(fmt.Sprintf("mpi: ShrinkTo rank %d not in communicator", g))
		}
		if g == c.proc.global {
			newRank = len(group)
		}
		group = append(group, g)
	}
	if newRank < 0 {
		panic("mpi: ShrinkTo excludes the calling rank")
	}
	id := c.proc.w.shrinkID(c.id, ks)
	// A shrink starts this sender's next wire-sequence epoch: how many
	// frames it posted inside the collective the failure aborted depends
	// on goroutine scheduling, and the seeded fault schedule after the
	// recovery must not.
	seq := &c.proc.w.wireSeq[c.proc.global]
	seq.Store((seq.Load()>>wireEpochBits + 1) << wireEpochBits)
	return &Comm{
		proc:        c.proc,
		group:       group,
		rank:        newRank,
		id:          id,
		born:        c.proc.w.failCount.Load(),
		nextChildID: id<<8 + 1,
	}
}
