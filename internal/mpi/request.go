package mpi

import "slices"

// Requests and ports: a rank has a NIC.
//
// A blocking collective occupies its rank's only clock from call to
// return, so two collectives on different groups and mostly different
// links still run one after the other. A request runs a body of sends
// and receives — any collective, or part of one — on a clock of its own
// that begins where the rank's clock stood when the request was issued,
// and Wait joins it. The body executes on the rank's goroutine, so
// message matching is exactly what the same calls made blocking, at the
// moment the body runs, would produce; only virtual time differs.
//
// What two requests in flight share honestly is injection: every send
// reserves n·β on one of the rank's two ports (simnet.Ports: the copy
// port for self and intra-node messages, the NIC for intra- and
// inter-supernode ones). A send that finds its port idle for its whole
// n·β is priced exactly as before — the clock advances by n·β and the
// message arrives α + n·β after it started. Otherwise its bytes fill
// the port's idle gaps from its start onward, never moving an
// earlier-booked reservation, the sender is busy until the last byte is
// out, and the message arrives α after that.
//
// A request's bytes are booked when its body runs, and there are two
// booking rules, one per way to issue it:
//
//   - Start runs the body at once, so its sends are booked ahead of
//     everything the rank issues after it. The MoE exchange's remote leg,
//     the pipeline's boundary sends (a peer's foreground consumes them, so
//     they cannot wait for a join), the step statistics and health round
//     and ZeRO's parameter all-gathers are started. The statistics go
//     ahead of every gradient bucket by this priority class, not by
//     start order.
//   - Defer runs the body at its Wait, on a clock that began at the Defer
//     call. Its sends fill only the port time that everything the rank
//     booked before that Wait left idle: strict priority, at packet
//     granularity, for what the rank did meanwhile. The gradient groups'
//     syncs are deferred (parallel.Engine.startGroup,
//     train.ShardedAdam.StartSync), so they leave in the NIC time the
//     backward's MoE exchanges do not use. Deferred bodies run in Wait
//     order, and the ranks a body talks to must join in the same order.
//
// Three rules keep deferral honest. The port floor — the earliest clock
// a later send can start at, below which reservations are forgotten —
// never passes the earliest pending deferred start, or a deferred body
// would book time that was already taken. A failure the rank observes
// drops every pending deferred body: it never runs and no longer holds
// the floor. And a failure first seen inside a deferred body escapes
// Wait with the usual typed error, leaving the rank's clock at the later
// of its own and the moment the body saw the failure.
//
// TestDeferYieldsToEarlierJoins pins the booking: results are bitwise
// the blocking run's; emptying a deferred body moves no clock before its
// Wait; reservations stay ordered and disjoint and hold exactly the
// traffic's injection time; Defer then Wait is the blocking run to the
// clock bit; runs agree at any GOMAXPROCS. TestDeferFailureDropsPending
// pins the failure rules.

// Request is a body of communication issued with Comm.Start or
// Comm.Defer, on a virtual clock of its own; Wait joins that clock. Like
// the Comm that issued it, it belongs to that rank's goroutine.
type Request struct {
	p     *proc
	start float64 // the rank's clock when the request was issued
	done  float64 // the request's clock when its body returned
	body  func()  // a deferred body that has not run yet
}

// Start runs body — sends, receives and collectives on any of this
// rank's communicators — as a request: on the rank's goroutine, right
// now, but on a virtual clock of its own that starts at the rank's
// clock, which Start leaves where it was. Its sends contend with every
// other send of the rank for the rank's ports. Every rank of the groups
// the body talks to must issue the same calls in the same order, as for
// blocking collectives. A body may not charge compute, advance the
// clock or issue another request; a failure inside it escapes Start as
// it would escape the blocking calls, leaving the rank's clock at the
// moment the body observed it.
func (c *Comm) Start(body func()) *Request {
	r := &Request{p: c.proc, start: c.proc.now}
	c.proc.run(r, body, "Start")
	return r
}

// Defer issues body as a request that runs at its Wait, on a clock that
// starts at the rank's clock now. The body rules are Start's, and the
// ranks the body talks to must join their requests in the same order.
// Its sends fill only the port time that everything the rank booked
// before the Wait left idle, so a deferred body never delays what the
// rank did in the meantime. A failure the rank observes before the Wait
// drops the body: it never runs, and its Wait returns at once.
func (c *Comm) Defer(body func()) *Request {
	p := c.proc
	p.outsideBody("Defer")
	r := &Request{p: p, start: p.now, done: p.now, body: body}
	// Issued in clock order: the first pending body starts earliest.
	p.deferred = append(p.deferred, r)
	return r
}

// Deferred counts this rank's deferred requests that have neither been
// joined nor dropped by a failure: the bodies still to run, whose starts
// hold the port floor.
func (c *Comm) Deferred() int { return len(c.proc.deferred) }

// Wait joins the request, running its body first if it was deferred:
// the rank's clock advances to the moment the body finished, if it is
// not already past it.
func (r *Request) Wait() {
	p := r.p
	if body := r.body; body != nil {
		r.body = nil
		i := slices.Index(p.deferred, r)
		p.deferred = slices.Delete(p.deferred, i, i+1)
		p.run(r, body, "Wait")
	}
	if r.done > p.now {
		p.now = r.done
	}
}

// run executes r's body on r's clock, which begins at r.start, and
// records where it ended; the rank's clock is then where it was. On a
// failure the rank keeps the later of its clock and the moment the body
// observed it, and the ports drop every reservation: the work they were
// booked for is abandoned, so nothing booked for it may delay what the
// rank sends next.
func (p *proc) run(r *Request, body func(), what string) {
	p.outsideBody(what)
	resume := p.now
	p.now, p.lane = r.start, r
	ok := false
	defer func() {
		p.lane = nil
		r.done = p.now
		if ok {
			p.now = resume
			return
		}
		p.now = max(p.now, resume)
		p.ports.Clear()
	}()
	body()
	ok = true
}

// outsideBody panics when a request body tries to issue or run another
// request.
func (p *proc) outsideBody(what string) {
	if p.lane != nil {
		panic("mpi: " + what + " inside a request body; a body cannot issue or run another request")
	}
}

// dropDeferred is what recv defers while bodies are pending: a failure
// escaping the receive drops them all, since the work they belong to is
// abandoned.
func (p *proc) dropDeferred() {
	if e := recover(); e != nil {
		for _, r := range p.deferred {
			r.body = nil
		}
		clear(p.deferred)
		p.deferred = p.deferred[:0]
		panic(e)
	}
}

// inBody panics when a request body tries to move the clock by any
// means other than its own communication.
func (p *proc) inBody(what string) {
	if p.lane != nil {
		panic("mpi: " + what + " inside a request body; a body carries communication only — charge it before Start or after Wait")
	}
}
