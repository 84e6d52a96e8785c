package simnet

import "sort"

// Ports are one rank's two injection ports: the copy port, which
// carries self and intra-node messages (shared memory between a node's
// core groups), and the NIC, which carries intra- and inter-supernode
// ones. Every send reserves its n·β on the port its level leaves
// through. A send that finds the port idle for its whole n·β leaves at
// once; otherwise its bytes fill the port's idle gaps from its start
// onward, never moving an earlier reservation, and its last byte
// leaves where the gaps run out. This is the one booking rule: the mpi
// runtime books every message it sends on a rank's Ports, and the
// analytic step walk (internal/perfmodel) books the messages it prices
// on the same type. Only the owner touches its Ports.
type Ports struct {
	busy [2][]Span // per port: reservations, ascending and disjoint
}

// Span is one reservation [Lo, Hi) of a port.
type Span struct{ Lo, Hi float64 }

// port names the port a message at level l leaves through.
func port(l Level) int {
	if l <= NodeLevel {
		return 0
	}
	return 1
}

// Busy returns the reservations of the port a message at level l
// leaves through, ascending and disjoint. The slice is the port's own.
func (p *Ports) Busy(l Level) []Span { return p.busy[port(l)] }

// Clone returns a copy of p's reservations: the ports of a rank whose
// traffic so far was p's.
func (p *Ports) Clone() *Ports {
	c := &Ports{}
	for i := range p.busy {
		c.busy[i] = append([]Span(nil), p.busy[i]...)
	}
	return c
}

// Clear drops every reservation of both ports: the work they were
// booked for is abandoned.
func (p *Ports) Clear() {
	for i := range p.busy {
		p.busy[i] = p.busy[i][:0]
	}
}

// Reserve books d seconds of the port a message at level l leaves
// through, for a send that is ready at start, and returns when its last
// byte leaves and whether the port was idle for the whole [start,
// start+d). Reservations ending at or before floor — the earliest clock
// any later send can start at — are forgotten first, which keeps the
// list at one entry while nothing is in flight.
func (p *Ports) Reserve(l Level, start, d, floor float64) (end float64, idle bool) {
	if d <= 0 {
		return start, true
	}
	b := p.busy[port(l)]
	// The reservations are ascending: binary-search the first that ends
	// after floor, and after start.
	if k := sort.Search(len(b), func(i int) bool { return b[i].Hi > floor }); k > 0 {
		b = b[:copy(b, b[k:])]
	}
	i := sort.Search(len(b), func(i int) bool { return b[i].Hi > start })
	end = start + d
	if i == len(b) || b[i].Lo >= end {
		// Idle throughout: one new reservation, inserted in order.
		b = append(b, Span{})
		copy(b[i+1:], b[i:])
		b[i] = Span{start, end}
		p.busy[port(l)] = b
		return end, true
	}
	// Fill the gaps before reservations i, i+1, … from start onward; the
	// last byte leaves in the first gap wide enough for the remainder, or
	// after the last reservation. Everything from the first touched
	// reservation to that byte is then busy, so they merge into one.
	lo := min(start, b[i].Lo)
	t, left := start, d
	j := i
	for ; j < len(b); j++ {
		if gap := b[j].Lo - t; gap > 0 {
			if gap >= left {
				break
			}
			left -= gap
		}
		t = max(t, b[j].Hi)
	}
	end = t + left
	b[i] = Span{lo, end}
	p.busy[port(l)] = append(b[:i+1], b[j:]...)
	return end, false
}

// Send charges one message of bytes at level l to a sender whose clock
// reads now, on its ports p: it reserves the injection, bytes·β, and the
// message arrives α after its last byte leaves, α and β the level's
// stretched by stretch (a straggler's slowdown; 1 for none). It returns
// the sender's clock once its last byte has left, the arrival, and when
// the injection began. floor is Reserve's. This is the one charge of a
// send: the mpi runtime prices every message it moves with it, and the
// step walk every message of the collectives it prices.
func (t *Topology) Send(p *Ports, l Level, bytes, now, floor, stretch float64) (clock, arrive, start float64) {
	alpha, inject := t.Alpha[l]*stretch, bytes*(t.Beta[l]*stretch)
	if end, idle := p.Reserve(l, now, inject, floor); !idle {
		// Queued behind other bytes: the link itself is no slower, so
		// the injection starts late.
		return end, end + alpha, end - inject
	}
	return now + inject, now + alpha + inject, now
}
