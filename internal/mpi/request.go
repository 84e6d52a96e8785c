package mpi

import "bagualu/internal/simnet"

// Requests and ports: a rank has a NIC.
//
// A blocking collective occupies its rank's only clock from call to
// return, so two collectives on different groups and mostly different
// links still run one after the other. Start runs a body of sends and
// receives — any collective, or part of one — on a clock of its own,
// starting at the rank's clock, and Wait joins it. The body executes
// eagerly on the rank's goroutine, so message matching is exactly what
// the same calls made blocking would produce; only virtual time differs.
//
// What two requests in flight share honestly is injection: every send
// reserves n·β on one of the rank's two ports, the copy port (self and
// intra-node: shared memory between the node's core groups) or the NIC
// (intra- and inter-supernode links). A send that finds its port idle
// for its whole n·β is priced exactly as before — the clock advances by
// n·β and the message arrives α + n·β after it started. Otherwise its
// bytes fill the port's idle gaps from its start onward, never moving an
// earlier-issued reservation, the sender is busy until the last byte is
// out, and the message arrives α after that.

// Request is a body of communication started with Comm.Start: it has
// already run, on its own virtual clock; Wait joins that clock. Like the
// Comm that started it, it belongs to that rank's goroutine.
type Request struct {
	p     *proc
	start float64 // the rank's clock when the request started
	done  float64 // the request's clock when its body returned
}

// Start runs body — sends, receives and collectives on any of this
// rank's communicators — as a request: on the rank's goroutine, right
// now, but on a virtual clock of its own that starts at the rank's
// clock, which Start leaves where it was. Its sends contend with every
// other send of the rank for the rank's ports. Every rank of the groups
// the body talks to must issue the same calls in the same order, as for
// blocking collectives. A body may not charge compute, advance the
// clock or start another request; a failure inside it escapes Start as
// it would escape the blocking calls, leaving the rank's clock at the
// moment the body observed it.
func (c *Comm) Start(body func()) *Request {
	p := c.proc
	if p.lane != nil {
		panic("mpi: Start inside a request body; a body cannot start another request")
	}
	r := &Request{p: p, start: p.now}
	p.lane = r
	ok := false
	defer func() {
		p.lane = nil
		r.done = p.now
		if ok {
			p.now = r.start
			return
		}
		// The failure was observed at the request's clock, which the rank
		// keeps. The work it was part of is abandoned, so nothing booked
		// for it may delay what the rank sends next.
		for i := range p.ports {
			p.ports[i].busy = p.ports[i].busy[:0]
		}
	}()
	body()
	ok = true
	return r
}

// Wait joins the request: the rank's clock advances to the moment the
// request's body finished, if it is not already past it.
func (r *Request) Wait() {
	if r.done > r.p.now {
		r.p.now = r.done
	}
}

// inBody panics when a request body tries to move the clock by any
// means other than its own communication.
func (p *proc) inBody(what string) {
	if p.lane != nil {
		panic("mpi: " + what + " inside a request body; a body carries communication only — charge it before Start or after Wait")
	}
}

// The rank's two injection ports.
const (
	copyPort = iota // self and intra-node
	nicPort         // intra- and inter-supernode
)

// portOf names the port a message at level l leaves through.
func portOf(l simnet.Level) int {
	if l <= simnet.NodeLevel {
		return copyPort
	}
	return nicPort
}

// span is one reservation [lo, hi) of a port.
type span struct{ lo, hi float64 }

// port is one injection resource: its reservations, ascending and
// disjoint. Only the owning rank's goroutine touches it.
type port struct {
	busy []span
}

// reserve books d seconds of the port for a send that is ready at start
// and returns when its last byte leaves and whether the port was idle
// for the whole [start, start+d). Reservations ending at or before floor
// — the earliest clock any later send can start at — are forgotten
// first, which keeps the list at one entry while nothing is in flight.
func (pt *port) reserve(start, d, floor float64) (end float64, idle bool) {
	if d <= 0 {
		return start, true
	}
	b := pt.busy
	k := 0
	for k < len(b) && b[k].hi <= floor {
		k++
	}
	if k > 0 {
		b = b[:copy(b, b[k:])]
	}
	i := 0
	for i < len(b) && b[i].hi <= start {
		i++
	}
	end = start + d
	if i == len(b) || b[i].lo >= end {
		// Idle throughout: one new reservation, inserted in order.
		b = append(b, span{})
		copy(b[i+1:], b[i:])
		b[i] = span{start, end}
		pt.busy = b
		return end, true
	}
	// Fill the gaps before reservations i, i+1, … from start onward; the
	// last byte leaves in the first gap wide enough for the remainder, or
	// after the last reservation. Everything from the first touched
	// reservation to that byte is then busy, so they merge into one.
	lo := min(start, b[i].lo)
	t, left := start, d
	j := i
	for ; j < len(b); j++ {
		if gap := b[j].lo - t; gap > 0 {
			if gap >= left {
				break
			}
			left -= gap
		}
		t = max(t, b[j].hi)
	}
	end = t + left
	b[i] = span{lo, end}
	pt.busy = append(b[:i+1], b[j:]...)
	return end, false
}
