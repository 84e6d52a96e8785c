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
	"bagualu/internal/tensor"
)

// laneKind is a collective the lane test issues as a request.
type laneKind int

const (
	laneAllReduce laneKind = iota
	laneReduceScatter
	laneAllGather
	laneAllToAllv
)

func (k laneKind) String() string {
	return [...]string{"AllReduce", "ReduceScatterShard", "AllGatherShard", "AllToAllv"}[k]
}

// laneOp is one request of a lane program: a collective over n elements
// per rank, on the communicator or on this rank's half of it.
type laneOp struct {
	kind laneKind
	half bool
	n    int
}

// laneCase is one sampled program: a world of sn supernodes × nodes
// nodes × rpn ranks per node, shrunk after world rank crash fails when
// crash >= 0, running ops.
type laneCase struct {
	sn, nodes, rpn int
	crash          int
	ops            []laneOp
}

func (tc laneCase) String() string {
	var ops []string
	for _, op := range tc.ops {
		where := ""
		if op.half {
			where = "/half"
		}
		ops = append(ops, fmt.Sprintf("%v%s(%d)", op.kind, where, op.n))
	}
	return fmt.Sprintf("%dsn×%dnode×%drpn/crash%d %s", tc.sn, tc.nodes, tc.rpn, tc.crash, strings.Join(ops, "+"))
}

// laneCases samples 1–4 supernodes, 1–2 nodes each, 1–3 ranks per node,
// half of them shrunk after a crash, each running 1–3 requests on the
// communicator or a split half of it, after a few fixed shapes.
func laneCases() []laneCase {
	out := []laneCase{
		{1, 1, 2, -1, []laneOp{{laneAllReduce, false, 300}, {laneAllReduce, true, 300}}},
		{2, 1, 2, -1, []laneOp{{laneAllReduce, false, 4099}, {laneAllReduce, true, 4099}}},
		{4, 1, 2, -1, []laneOp{{laneAllReduce, false, 20000}, {laneAllReduce, true, 6000}}},
		{2, 2, 2, 5, []laneOp{{laneReduceScatter, false, 4099}, {laneReduceScatter, true, 777}, {laneAllToAllv, false, 64}}},
		{3, 1, 3, -1, []laneOp{{laneAllGather, true, 1000}, {laneAllToAllv, false, 200}, {laneAllReduce, false, 1}}},
	}
	sizes := []int{0, 1, 7, 300, 4099, 20000}
	rng := rand.New(rand.NewSource(26))
	for i := 0; i < 35; i++ {
		tc := laneCase{sn: 1 + rng.Intn(4), nodes: 1 + rng.Intn(2), rpn: 1 + rng.Intn(3), crash: -1}
		if size := tc.sn * tc.nodes * tc.rpn; size > 2 && rng.Intn(2) == 1 {
			tc.crash = rng.Intn(size)
		}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			tc.ops = append(tc.ops, laneOp{laneKind(rng.Intn(4)), rng.Intn(2) == 1, sizes[rng.Intn(len(sizes))]})
		}
		out = append(out, tc)
	}
	return out
}

// laneInput is global rank g's deterministic contribution, salted.
func laneInput(g, salt, n int) []float32 {
	rng := tensor.NewRNG(uint64(7919*g + 31*salt + n + 1))
	out := make([]float32, n)
	for i := range out {
		out[i] = (rng.Float32()*2 - 1) * float32(int(1)<<rng.Intn(10))
	}
	return out
}

// run executes op on c for global rank g and returns a fresh copy of
// what it produced.
func (op laneOp) run(c *Comm, g int) []float32 {
	switch op.kind {
	case laneAllReduce:
		return c.AllReduce(laneInput(g, 0, op.n), OpSum)
	case laneReduceScatter:
		s, _ := c.ReduceScatterShard(laneInput(g, 1, op.n), GradWire{})
		return s
	case laneAllGather:
		return c.AllGatherShard(laneInput(g, 2, c.MyShard(op.n).Len()), op.n)
	}
	counts := make([]int, c.Size())
	for d := range counts {
		counts[d] = op.n/(1+c.Size()) + (3*g+5*d)%7
	}
	sb := NewSendBuf(counts)
	for d, n := range counts {
		sb.Append(d, laneInput(g, 3+d, n))
	}
	rb := c.AllToAllv(sb, FP32Wire)
	sb.Release()
	var out []float32
	for _, s := range rb.Srcs() {
		out = append(out, rb.Chunk(s)...)
	}
	rb.Release()
	return out
}

// laneMode is how a lane program issues its requests.
type laneMode int

const (
	laneBlocking   laneMode = iota // plain calls, one after the other
	laneStartWait                  // each call started and waited at once
	laneConcurrent                 // all started, then all waited
)

// laneRun is what one execution of a lane program leaves behind, per
// global rank (the crashed one's entries stay empty).
type laneRun struct {
	out   [][][]float32 // per rank, per op
	done  []float64     // clock once every request has been joined
	end   []float64     // clock after the closing barrier
	stats simnet.Traffic
	// Concurrent mode: injection time the ranks' ports hold between the
	// first Start and the joins, summed over ranks, and what the bytes
	// the requests sent at each level cost at that level's β.
	held, sent [2]float64
	errs       []string
}

func (tc laneCase) run(mode laneMode) *laneRun {
	topo := simnet.New(sunway.TestMachine(tc.sn, tc.nodes), tc.rpn)
	size := tc.sn * tc.nodes * tc.rpn
	w := NewWorld(size, topo)
	r := &laneRun{out: make([][][]float32, size), done: make([]float64, size), end: make([]float64, size)}
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
		c.Barrier()
		if c.Rank() == 0 {
			before = w.Stats().Snapshot()
		}
		c.Barrier()
		switch mode {
		case laneBlocking:
			for _, body := range bodies {
				body()
			}
		case laneStartWait:
			for _, body := range bodies {
				c.Start(body).Wait()
			}
		case laneConcurrent:
			t0 := c.Now()
			reqs := make([]*Request, len(bodies))
			for i, body := range bodies {
				reqs[i] = c.Start(body)
			}
			if c.Now() != t0 {
				errs[g] = fmt.Sprintf("rank %d: Start moved the clock %v -> %v", g, t0, c.Now())
			}
			var err error
			if held[g], err = portTime(c.proc, t0); err != nil {
				errs[g] = fmt.Sprintf("rank %d: %v", g, err)
			}
			for _, req := range reqs {
				req.Wait()
			}
		}
		r.out[g], r.done[g] = res, c.Now()
		c.Barrier()
		if c.Rank() == 0 {
			after = w.Stats().Snapshot()
		}
		c.Barrier()
		r.end[g] = c.Now()
	})
	r.stats = w.Stats().Snapshot()
	// Shared memory carries self and intra-node bytes, the NIC the rest.
	delta := after.Sub(before)
	for l, port := range [4]int{copyPort, copyPort, nicPort, nicPort} {
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

// portTime sums, per port, the time p's reservations cover from t0 on,
// and checks that they are ordered and disjoint.
func portTime(p *proc, t0 float64) ([2]float64, error) {
	var held [2]float64
	for k := range p.ports {
		prev := math.Inf(-1)
		for _, s := range p.ports[k].busy {
			if !(s.lo < s.hi) || s.lo < prev {
				return held, fmt.Errorf("port %d reservations out of order: %v", k, p.ports[k].busy)
			}
			prev = s.hi
			if s.hi > t0 {
				held[k] += s.hi - max(s.lo, t0)
			}
		}
	}
	return held, nil
}

// sameBits reports whether two runs produced bitwise-identical results.
func sameBits(a, b [][][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for g := range a {
		if len(a[g]) != len(b[g]) {
			return false
		}
		for i := range a[g] {
			if len(a[g][i]) != len(b[g][i]) {
				return false
			}
			for j := range a[g][i] {
				if math.Float32bits(a[g][i][j]) != math.Float32bits(b[g][i][j]) {
					return false
				}
			}
		}
	}
	return true
}

func sameClocks(a, b []float64) bool {
	for g := range a {
		if math.Float64bits(a[g]) != math.Float64bits(b[g]) {
			return false
		}
	}
	return true
}

// TestRequestLanes runs sampled programs of 1–3 collectives three ways —
// blocking, each started and waited at once, and all started before any
// is waited — on split and shrunk sub-communicators of sampled worlds.
// Requests change when things happen, never what is computed: every
// result is bitwise the blocking one; start-then-wait is the blocking
// run to the clock bit and traffic counter; the concurrent run finishes
// no later on any rank; the ports hold exactly the injection time the
// traffic costs, each port its own levels', with no instant booked
// twice; and the concurrent run is identical at GOMAXPROCS 1, 2 and 4.
func TestRequestLanes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range laneCases() {
		b := tc.run(laneBlocking)
		s := tc.run(laneStartWait)
		if !sameBits(s.out, b.out) {
			t.Errorf("%v: start-then-wait results differ from blocking", tc)
		}
		if !sameClocks(s.done, b.done) || !sameClocks(s.end, b.end) || s.stats != b.stats {
			t.Errorf("%v: start-then-wait clocks or traffic differ from blocking:\n  %v %v\n  %v %v", tc, s.done, s.stats, b.done, b.stats)
		}
		var first *laneRun
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			k := tc.run(laneConcurrent)
			for _, e := range k.errs {
				t.Errorf("%v: %s", tc, e)
			}
			if first == nil {
				first = k
				if !sameBits(k.out, b.out) {
					t.Errorf("%v: concurrent results differ from blocking", tc)
				}
				for g := range k.done {
					if k.done[g] > b.done[g] {
						t.Errorf("%v rank %d: concurrent clock %v after blocking %v", tc, g, k.done[g], b.done[g])
					}
				}
				for port := range k.held {
					if d := math.Abs(k.held[port] - k.sent[port]); d > 1e-9*k.sent[port] {
						t.Errorf("%v: port %d holds %v s of injection, the traffic costs %v s", tc, port, k.held[port], k.sent[port])
					}
				}
				continue
			}
			if !sameBits(k.out, first.out) || !sameClocks(k.done, first.done) || !sameClocks(k.end, first.end) || k.stats != first.stats {
				t.Errorf("%v: concurrent run at GOMAXPROCS %d differs from GOMAXPROCS 1", tc, procs)
			}
		}
	}
}

// TestRequestPortArithmetic pins the port rule on one sender: a request
// that finds the port idle is priced exactly as a blocking send; a
// second request on the same port queues behind the first, arriving α
// after its last byte; and a request on the other port does not wait.
func TestRequestPortArithmetic(t *testing.T) {
	topo := simnet.New(sunway.TestMachine(2, 1), 2) // ranks 0,1 share a node; 2,3 another supernode
	const n = 1 << 14
	d := func(l simnet.Level) float64 { return float64(4*n) * topo.Beta[l] }
	arrivals := make([]float64, 4)
	w := NewWorld(4, topo)
	w.Run(func(c *Comm) {
		x := make([]float32, n)
		switch c.Rank() {
		case 0:
			a := c.Start(func() { c.SendMsg(2, 0, x, nil) })
			b := c.Start(func() { c.SendMsg(3, 0, x, nil) })
			m := c.Start(func() { c.SendMsg(1, 0, x, nil) })
			a.Wait()
			b.Wait()
			m.Wait()
		default:
			c.Recv(0, 0)
			arrivals[c.Rank()] = c.Now()
		}
	})
	a := topo.Alpha
	if want := 0 + a[simnet.MachineLevel] + d(simnet.MachineLevel); arrivals[2] != want {
		t.Errorf("first NIC request arrived at %v, want the blocking %v", arrivals[2], want)
	}
	if want := d(simnet.MachineLevel) + d(simnet.MachineLevel) + a[simnet.MachineLevel]; arrivals[3] != want {
		t.Errorf("second NIC request arrived at %v, want %v (queued behind the first)", arrivals[3], want)
	}
	if want := 0 + a[simnet.NodeLevel] + d(simnet.NodeLevel); arrivals[1] != want {
		t.Errorf("copy-port request arrived at %v, want %v (its own port was idle)", arrivals[1], want)
	}
}

// TestRequestFailureInFlight crashes a rank while two requests are
// outstanding — the first on a half that excludes the victim and
// completes, the second world-wide. The failure escapes Protect as the
// usual typed error; the rank's clock is where it observed it, no lane
// is left open, and no reservation reaches past that moment.
func TestRequestFailureInFlight(t *testing.T) {
	w := NewWorld(8, simnet.New(sunway.TestMachine(2, 2), 2))
	errs := make([]error, 8)
	w.Run(func(c *Comm) {
		half := c.Split(c.Rank()/4, c.Rank())
		if c.Rank() == 6 {
			c.Abandon()
			return
		}
		start := c.Now()
		errs[c.Rank()] = Protect(func() {
			x := make([]float32, 5000)
			first := c.Start(func() { half.AllReduce(x, OpSum) })
			second := c.Start(func() { c.AllReduce(x, OpSum) })
			first.Wait()
			second.Wait()
		})
		p := c.proc
		switch {
		case p.lane != nil:
			t.Errorf("rank %d: lane still open after the failure", c.Rank())
		case c.Now() < start:
			t.Errorf("rank %d: clock went back to %v from %v", c.Rank(), c.Now(), start)
		}
		for k := range p.ports {
			for _, s := range p.ports[k].busy {
				if s.hi > c.Now() {
					t.Errorf("rank %d: port %d reserved until %v past the detection at %v", c.Rank(), k, s.hi, c.Now())
				}
			}
		}
	})
	for r, err := range errs {
		if r == 6 {
			continue
		}
		var rf *RankFailedError
		var rv *RevokedError
		if !errors.As(err, &rf) && !errors.As(err, &rv) {
			t.Errorf("rank %d: want a typed failure from Protect, got %v", r, err)
		}
	}
}

// TestRequestBodyRules: a body carries communication only. Charging
// compute, advancing the clock or starting another request inside one
// panics with a message that says so.
func TestRequestBodyRules(t *testing.T) {
	for name, body := range map[string]func(c *Comm){
		"Compute":   func(c *Comm) { c.Compute(1e-6, metrics.PhaseCompute) },
		"AdvanceTo": func(c *Comm) { c.AdvanceTo(1) },
		"Start":     func(c *Comm) { c.Start(func() {}) },
	} {
		w := NewWorld(1, nil)
		w.Run(func(c *Comm) {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, name) || !strings.Contains(msg, "request body") {
					t.Errorf("%s inside a body: panic %q, want one naming it and the request body", name, msg)
				}
				if c.proc.lane != nil {
					t.Errorf("%s inside a body: lane left open", name)
				}
			}()
			c.Start(func() { body(c) })
		})
	}
}

// TestPortIdlePathAllocatesNothing: a send that finds its port idle —
// every send of a blocking program — reuses the port's one reservation.
func TestPortIdlePathAllocatesNothing(t *testing.T) {
	var pt port
	now := 0.0
	allocs := testing.AllocsPerRun(1000, func() {
		end, idle := pt.reserve(now, 1e-6, now)
		if !idle {
			t.Fatal("a send at the rank's clock found its port busy")
		}
		now = end
	})
	if allocs != 0 || len(pt.busy) != 1 {
		t.Fatalf("idle sends allocate %v times each and leave %d reservations", allocs, len(pt.busy))
	}
}
