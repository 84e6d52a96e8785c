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
	// after floor.
	if k := sort.Search(len(b), func(i int) bool { return b[i].Hi > floor }); k > 0 {
		b = b[:copy(b, b[k:])]
	}
	end, i, j := fill(b, start, d)
	if i == j {
		// Idle throughout: one new reservation, inserted in order.
		b = append(b, Span{})
		copy(b[i+1:], b[i:])
		b[i] = Span{start, end}
		p.busy[port(l)] = b
		return end, true
	}
	// Everything from the first touched reservation to the last byte is
	// then busy, so they merge into one.
	b[i] = Span{min(start, b[i].Lo), end}
	p.busy[port(l)] = append(b[:i+1], b[j:]...)
	return end, false
}

// fill returns where d seconds injected from start end on a port with
// reservations b, filling their idle gaps from start onward, and the
// reservations i … j-1 the injection touches (i == j: none, the port is
// idle for the whole [start, end) and a reservation would go at i).
func fill(b []Span, start, d float64) (end float64, i, j int) {
	if d <= 0 {
		return start, 0, 0
	}
	i = sort.Search(len(b), func(i int) bool { return b[i].Hi > start })
	end = start + d
	if i == len(b) || b[i].Lo >= end {
		return end, i, i
	}
	// The last byte leaves in the first gap wide enough for the
	// remainder, or after the last reservation.
	t, left := start, d
	j = i
	for ; j < len(b); j++ {
		if gap := b[j].Lo - t; gap > 0 {
			if gap >= left {
				break
			}
			left -= gap
		}
		t = max(t, b[j].Hi)
	}
	return t + left, i, j
}

// A Run is messages one sender injects back to back at one level, from
// one clock and at one stretch: it books their injection, bytes·β in
// all, as one send, and its message i leaves when the run's first i+1
// messages' bytes have been injected — filling the port's idle gaps as
// Reserve does — and arrives α later. α and β are the level's,
// stretched by stretch (a straggler's slowdown; 1 for none). A run of
// one message is a send (Topology.Send). This is the one charge of a
// send: the mpi runtime prices every message it moves with it, and the
// step walk every message of the lists it prices.
type Run struct {
	p                       *Ports
	l                       Level
	now, floor, alpha, beta float64
	bytes                   float64 // the bytes of the messages charged so far
}

// Run starts a run at level l from a sender whose clock reads now, on
// its ports p; floor is Reserve's.
func (t *Topology) Run(p *Ports, l Level, now, floor, stretch float64) Run {
	return Run{p: p, l: l, now: now, floor: floor, alpha: t.Alpha[l] * stretch, beta: t.Beta[l] * stretch}
}

// Send charges the run's next message, of bytes, when it is not the
// last: it returns the sender's clock once its last byte has left, its
// arrival and when its injection began. The ports are booked by Last.
func (r *Run) Send(bytes float64) (clock, arrive, start float64) {
	d := (r.bytes + bytes) * r.beta
	end, i, j := fill(r.p.busy[port(r.l)], r.now, d)
	r.bytes += bytes
	return times(r.now, r.alpha, d, bytes*r.beta, end, i == j)
}

// Last charges the run's last message, of bytes, as Send does, and
// books the whole run on the ports.
func (r *Run) Last(bytes float64) (clock, arrive, start float64) {
	d := (r.bytes + bytes) * r.beta
	end, idle := r.p.Reserve(r.l, r.now, d, r.floor)
	r.bytes += bytes
	return times(r.now, r.alpha, d, bytes*r.beta, end, idle)
}

// times returns the sender's clock, the arrival and the start of a
// message, inject seconds of a run's d from now, whose last byte leaves
// at end: idle when the port had nothing else in its way.
func times(now, alpha, d, inject, end float64, idle bool) (clock, arrive, start float64) {
	if !idle {
		// Queued behind other bytes: the link itself is no slower, so
		// the injection starts late.
		return end, end + alpha, end - inject
	}
	return now + d, now + alpha + d, now + (d - inject)
}

// Send charges one message of bytes at level l to a sender whose clock
// reads now, on its ports p: a run of one message, as Run.Last charges
// it. It returns the sender's clock once its last byte has left, the
// arrival, and when the injection began.
func (t *Topology) Send(p *Ports, l Level, bytes, now, floor, stretch float64) (clock, arrive, start float64) {
	inject := bytes * (t.Beta[l] * stretch)
	end, idle := p.Reserve(l, now, inject, floor)
	return times(now, t.Alpha[l]*stretch, inject, inject, end, idle)
}
