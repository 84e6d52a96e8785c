package mpi

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"bagualu/internal/metrics"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
)

// callMode is how a defer program issues one of its collectives.
type callMode int

const (
	callBlocking callMode = iota // a plain call
	callStart                    // a request run at once
	callDefer                    // a request run at its Wait
)

// deferStep is one step of a defer program: issue op, or join the
// request op issued.
type deferStep struct {
	op   int
	wait bool
}

// deferProgram runs a lane case's world and collectives, each issued
// blocking, started or deferred, the requests joined in a sampled order.
type deferProgram struct {
	tc    laneCase
	how   []callMode
	steps []deferStep
}

func (dp deferProgram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v [", dp.tc)
	for _, s := range dp.steps {
		switch {
		case s.wait:
			fmt.Fprintf(&b, " W%d", s.op)
		default:
			fmt.Fprintf(&b, " %c%d", "BSD"[dp.how[s.op]], s.op)
		}
	}
	b.WriteString(" ]")
	return b.String()
}

// uniform issues every op of tc the same way, each request joined at
// once.
func uniform(tc laneCase, how callMode) deferProgram {
	dp := deferProgram{tc: tc}
	for i := range tc.ops {
		dp.how = append(dp.how, how)
		dp.steps = append(dp.steps, deferStep{op: i})
		if how != callBlocking {
			dp.steps = append(dp.steps, deferStep{op: i, wait: true})
		}
	}
	return dp
}

// deferPrograms extends each lane case by one collective and issues its
// collectives blocking, started or deferred (at least one deferred).
// After each issue it joins each outstanding request with probability
// 1/3, in a shuffled order, and at the end it joins the rest shuffled.
func deferPrograms() []deferProgram {
	rng := rand.New(rand.NewSource(43))
	sizes := []int{1, 300, 4099, 20000}
	var out []deferProgram
	for _, tc := range laneCases() {
		tc.ops = append(append([]laneOp(nil), tc.ops...),
			laneOp{laneKind(rng.Intn(4)), rng.Intn(2) == 1, sizes[rng.Intn(len(sizes))]})
		dp := deferProgram{tc: tc, how: make([]callMode, len(tc.ops))}
		for i := range dp.how {
			dp.how[i] = callMode(rng.Intn(3))
		}
		dp.how[rng.Intn(len(dp.how))] = callDefer
		var open []int
		join := func(p float64) {
			rng.Shuffle(len(open), func(a, b int) { open[a], open[b] = open[b], open[a] })
			var keep []int
			for _, op := range open {
				if rng.Float64() < p {
					dp.steps = append(dp.steps, deferStep{op: op, wait: true})
				} else {
					keep = append(keep, op)
				}
			}
			open = keep
		}
		for i, how := range dp.how {
			dp.steps = append(dp.steps, deferStep{op: i})
			if how != callBlocking {
				join(1.0 / 3)
				open = append(open, i)
			}
		}
		join(1)
		out = append(out, dp)
	}
	return out
}

// deferRun is what one execution of a defer program leaves behind, per
// global rank (the crashed one's entries stay empty).
type deferRun struct {
	out    [][][]float32 // per rank, per op
	events [][]float64   // per rank, the clock after each step
	end    []float64     // clock after the closing barrier
	stats  simnet.Traffic
	// Injection time the ranks' ports hold from the program's start once
	// every request is joined, summed over ranks, and what the bytes sent
	// at each level cost at that level's β.
	held, sent [2]float64
	errs       []string
}

// run executes the program with op skip's body emptied (none when skip
// is negative). An empty deferred request issued first and joined last
// keeps the port floor at the program's start, so the ports still hold
// everything booked since then when the last request is joined.
func (dp deferProgram) run(skip int) *deferRun {
	tc := dp.tc
	topo := simnet.New(sunway.TestMachine(tc.sn, tc.nodes), tc.rpn)
	size := tc.sn * tc.nodes * tc.rpn
	w := NewWorld(size, topo)
	r := &deferRun{out: make([][][]float32, size), events: make([][]float64, size), end: make([]float64, size)}
	held := make([][2]float64, size)
	errs := make([]string, size)
	var before, after simnet.Traffic
	w.Run(func(c *Comm) {
		if tc.crash >= 0 {
			if c.Rank() == tc.crash {
				c.Abandon()
				return
			}
			Protect(c.Barrier) // absorb the detection
			c = c.ShrinkTo(c.Survivors())
		}
		g := c.Global(c.Rank())
		half := c.Split(c.Rank()%2, c.Rank())
		res := make([][]float32, len(tc.ops))
		bodies := make([]func(), len(tc.ops))
		for i, op := range tc.ops {
			on := c
			if op.half {
				on = half
			}
			bodies[i] = func() { res[i] = op.run(on, g) }
		}
		if skip >= 0 {
			bodies[skip] = func() {}
		}
		c.Barrier()
		if c.Rank() == 0 {
			before = w.Stats().Snapshot()
		}
		c.Barrier()
		t0 := c.Now()
		pin := c.Defer(func() {})
		reqs := make([]*Request, len(tc.ops))
		ev := make([]float64, len(dp.steps))
		fail := func(err error) {
			if err != nil && errs[g] == "" {
				errs[g] = fmt.Sprintf("rank %d: %v", g, err)
			}
		}
		for k, s := range dp.steps {
			switch {
			case s.wait:
				reqs[s.op].Wait()
			case dp.how[s.op] == callBlocking:
				bodies[s.op]()
			case dp.how[s.op] == callStart:
				reqs[s.op] = c.Start(bodies[s.op])
			default:
				t := c.Now()
				reqs[s.op] = c.Defer(bodies[s.op])
				if c.Now() != t {
					fail(fmt.Errorf("Defer moved the clock %v -> %v", t, c.Now()))
				}
			}
			ev[k] = c.Now()
			_, err := portTime(c.proc, t0)
			fail(err)
		}
		pin.Wait()
		var err error
		held[g], err = portTime(c.proc, t0)
		fail(err)
		if len(c.proc.deferred) != 0 {
			fail(fmt.Errorf("%d deferred bodies pending after the last join", len(c.proc.deferred)))
		}
		r.out[g], r.events[g] = res, ev
		c.Barrier()
		if c.Rank() == 0 {
			after = w.Stats().Snapshot()
		}
		c.Barrier()
		r.end[g] = c.Now()
	})
	r.stats = w.Stats().Snapshot()
	delta := after.Sub(before)
	for l, port := range [4]int{0, 0, 1, 1} { // the copy port, then the NIC
		r.sent[port] += float64(delta.Bytes[l]) * topo.Beta[l]
	}
	for g := range held {
		r.held[0] += held[g][0]
		r.held[1] += held[g][1]
		if errs[g] != "" {
			r.errs = append(r.errs, errs[g])
		}
	}
	return r
}

// lastClocks is each rank's clock after the program's last step.
func (r *deferRun) lastClocks() []float64 {
	out := make([]float64, len(r.events))
	for g, ev := range r.events {
		if len(ev) > 0 {
			out[g] = ev[len(ev)-1]
		}
	}
	return out
}

// TestDeferYieldsToEarlierJoins runs sampled programs that mix blocking
// collectives, started and deferred requests, joined in sampled orders,
// on the lane cases' split and shrunk worlds. A deferred body runs at its
// Wait and fills only the port time everything booked before that Wait
// left idle:
//
//	(a) every result is bitwise the blocking run's;
//	(b) emptying a deferred body changes no rank's clock at any step
//	    before its Wait: nothing booked earlier starts later because of it;
//	(c) port reservations stay ordered and disjoint, and after the last
//	    Wait they hold exactly the injection time the traffic costs;
//	(d) Defer followed at once by Wait is the blocking run to the clock
//	    bit and traffic counter;
//	(e) runs are identical at GOMAXPROCS 1, 2 and 4.
func TestDeferYieldsToEarlierJoins(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, dp := range deferPrograms() {
		b := uniform(dp.tc, callBlocking).run(-1)
		d := uniform(dp.tc, callDefer).run(-1)
		for _, e := range d.errs {
			t.Errorf("%v defer-then-wait: %s", dp, e)
		}
		if !sameBits(d.out, b.out) {
			t.Errorf("%v: defer-then-wait results differ from blocking", dp)
		}
		if !sameClocks(d.lastClocks(), b.lastClocks()) || !sameClocks(d.end, b.end) || d.stats != b.stats {
			t.Errorf("%v: defer-then-wait clocks or traffic differ from blocking:\n  %v %v\n  %v %v", dp, d.lastClocks(), d.stats, b.lastClocks(), b.stats)
		}
		var first *deferRun
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			k := dp.run(-1)
			for _, e := range k.errs {
				t.Errorf("%v: %s", dp, e)
			}
			if first != nil {
				if !sameBits(k.out, first.out) || !sameClocks(k.end, first.end) || k.stats != first.stats || !sameEvents(k.events, first.events, -1) {
					t.Errorf("%v: run at GOMAXPROCS %d differs from GOMAXPROCS 1", dp, procs)
				}
				continue
			}
			first = k
			if !sameBits(k.out, b.out) {
				t.Errorf("%v: results differ from blocking", dp)
			}
			for port := range k.held {
				if diff := math.Abs(k.held[port] - k.sent[port]); diff > 1e-9*k.sent[port] {
					t.Errorf("%v: port %d holds %v s of injection, the traffic costs %v s", dp, port, k.held[port], k.sent[port])
				}
			}
		}
		runtime.GOMAXPROCS(1)
		for op, how := range dp.how {
			if how != callDefer {
				continue
			}
			joined := 0
			for k, s := range dp.steps {
				if s.wait && s.op == op {
					joined = k
				}
			}
			if e := dp.run(op); !sameEvents(e.events, first.events, joined) {
				t.Errorf("%v: emptying deferred op %d moved a clock before its Wait:\n  %v\n  %v", dp, op, e.events, first.events)
			}
		}
	}
}

// sameEvents reports whether two runs' clocks agree bitwise at every
// step before step upto (every step when upto is negative).
func sameEvents(a, b [][]float64, upto int) bool {
	for g := range a {
		n := len(a[g])
		if upto >= 0 {
			n = min(n, upto)
		}
		if len(a[g]) != len(b[g]) || !sameClocks(a[g][:n], b[g][:n]) {
			return false
		}
	}
	return true
}

// TestDeferFailureDropsPending crashes a rank while deferred bodies are
// pending. A failure seen outside them drops them: they never run, no
// longer hold the port floor, and their Wait returns at once. A failure
// first seen inside a deferred body escapes Wait as the usual typed
// error, drops the other pending bodies, and leaves the rank's clock at
// the later of its own and the body's.
func TestDeferFailureDropsPending(t *testing.T) {
	w := NewWorld(8, simnet.New(sunway.TestMachine(2, 2), 2))
	errs := make([][2]error, 8)
	w.Run(func(c *Comm) {
		half := c.Split(c.Rank()/4, c.Rank())
		if c.Rank() == 6 {
			c.Abandon()
			return
		}
		x := make([]float32, 5000)
		p := c.proc
		ran := false
		dropped := c.Defer(func() { ran = true; half.AllReduce(x, OpSum) })
		errs[c.Rank()][0] = Protect(func() { c.AllReduce(x, OpSum) })
		at := c.Now()
		dropped.Wait()
		switch {
		case ran:
			t.Errorf("rank %d: a body pending at the failure ran at its Wait", c.Rank())
		case c.Now() != at:
			t.Errorf("rank %d: joining a dropped body moved the clock %v -> %v", c.Rank(), at, c.Now())
		case len(p.deferred) != 0 || p.floor() != p.now:
			t.Errorf("rank %d: dropped bodies still pending (%d) or holding the floor at %v", c.Rank(), len(p.deferred), p.floor())
		}

		// Now the failure is first seen inside a deferred body, by then far
		// behind the rank's own clock.
		other := c.Defer(func() { ran = true })
		errs[c.Rank()][1] = Protect(func() {
			r := c.Defer(func() { c.AllReduce(x, OpSum) })
			c.Compute(1, metrics.PhaseCompute)
			r.Wait()
		})
		at = c.Now()
		other.Wait()
		switch {
		case ran:
			t.Errorf("rank %d: a body pending at a failure inside another ran", c.Rank())
		case p.lane != nil || len(p.deferred) != 0:
			t.Errorf("rank %d: lane open or %d bodies pending after the failure", c.Rank(), len(p.deferred))
		case at != c.Now() || at < 1:
			t.Errorf("rank %d: clock %v after the failure, want the rank's own (≥ 1 s)", c.Rank(), at)
		}
		for k, l := range []simnet.Level{simnet.NodeLevel, simnet.MachineLevel} {
			for _, s := range p.ports.Busy(l) {
				if s.Hi > c.Now() {
					t.Errorf("rank %d: port %d reserved until %v past the detection at %v", c.Rank(), k, s.Hi, c.Now())
				}
			}
		}
	})
	for r, pair := range errs {
		if r == 6 {
			continue
		}
		for i, err := range pair {
			var rf *RankFailedError
			var rv *RevokedError
			if !errors.As(err, &rf) && !errors.As(err, &rv) {
				t.Errorf("rank %d, failure %d: want a typed failure from Protect, got %v", r, i, err)
			}
		}
	}
}
