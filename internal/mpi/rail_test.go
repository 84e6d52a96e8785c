package mpi

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
)

// railWorld is one sampled communicator of the rail tests: members[j]
// ranks in supernode j (the first members[j] of its four), rpn ranks
// per node.
type railWorld struct {
	members []int
	rpn     int
}

func (rw railWorld) String() string { return fmt.Sprintf("members%v/rpn%d", rw.members, rw.rpn) }

// run executes fn on the sampled communicator: a world of four ranks
// per supernode, split down to the listed members.
func (rw railWorld) run(fn func(c *Comm)) *World {
	const perSN = 4
	w := NewWorld(perSN*len(rw.members), simnet.New(sunway.TestMachine(len(rw.members), perSN/rw.rpn), rw.rpn))
	w.Run(func(c *Comm) {
		color := -1
		if c.Rank()%perSN < rw.members[c.Rank()/perSN] {
			color = 0
		}
		if sub := c.Split(color, c.Rank()); sub != nil {
			fn(sub)
		}
	})
	return w
}

// supernodes lists the communicator's ranks per supernode.
func (rw railWorld) supernodes() [][]int {
	var sn [][]int
	r := 0
	for _, m := range rw.members {
		var ms []int
		for ; m > 0; m-- {
			ms = append(ms, r)
			r++
		}
		sn = append(sn, ms)
	}
	return sn
}

// railWorlds samples S in {2,3,4} with 1..4 members per supernode:
// every equal shape, the shrunk 4+3 shapes, and seeded unequal ones,
// each at 1 and 2 ranks per node.
func railWorlds() []railWorld {
	rng := tensor.NewRNG(23)
	var out []railWorld
	for S := 2; S <= 4; S++ {
		var shapes [][]int
		for k := 1; k <= 4; k++ {
			eq := make([]int, S)
			for j := range eq {
				eq[j] = k
			}
			shapes = append(shapes, eq)
		}
		for j := 0; j < S; j++ { // one supernode lost a rank
			sh := make([]int, S)
			for i := range sh {
				sh[i] = 4
			}
			sh[j] = 3
			shapes = append(shapes, sh)
		}
		for i := 0; i < 5; i++ {
			sh := make([]int, S)
			for j := range sh {
				sh[j] = 1 + rng.Intn(4)
			}
			shapes = append(shapes, sh)
		}
		for _, sh := range shapes {
			out = append(out, railWorld{sh, 1}, railWorld{sh, 2})
		}
	}
	return out
}

// railInput is rank r's contribution: magnitudes spread over twelve
// binades, so that a different association rounds differently.
func railInput(r, n int) []float32 {
	rng := tensor.NewRNG(uint64(1000*r + n + 1))
	out := make([]float32, n)
	for i := range out {
		out[i] = (rng.Float32()*2 - 1) * float32(int(1)<<rng.Intn(12))
	}
	return out
}

// refAllReduceHier states AllReduceHier's association sequentially:
// per supernode a binomial-tree-ordered local reduction, then, for the
// elements of leader chunk c, ring order over the supernodes starting
// at supernode c.
func refAllReduceHier(inputs [][]float32, sn [][]int, op ReduceOp) []float32 {
	n, S := len(inputs[0]), len(sn)
	local := make([][]float32, S)
	for j, ms := range sn {
		v := make([][]float32, len(ms))
		for q, r := range ms {
			v[q] = append([]float32(nil), inputs[r]...)
		}
		for k := 1; k < len(ms); k <<= 1 {
			for q := 0; q+k < len(ms); q += 2 * k {
				op(v[q], v[q+k])
			}
		}
		local[j] = v[0]
	}
	lb := ringBounds(n, S)
	out := make([]float32, n)
	for c := 0; c < S; c++ {
		for s := 1; s < S; s++ {
			op(local[(c+s)%S][lb[c]:lb[c+1]], local[(c+s-1)%S][lb[c]:lb[c+1]])
		}
		copy(out[lb[c]:lb[c+1]], local[(c+S-1)%S][lb[c]:lb[c+1]])
	}
	return out
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRailScheduleMatchesReference is the generated oracle for the
// hierarchical collectives: on every sampled world, size and op,
// AllReduceHier is the sequential reference bit for bit,
// ReduceScatterShard is the owned range of AllReduce, AllGatherShard
// undoes it, and no returned slice shares storage with an input or with
// another rank's result.
func TestRailScheduleMatchesReference(t *testing.T) {
	ops := []struct {
		name string
		op   ReduceOp
	}{{"sum", OpSum}, {"max", OpMax}}
	for _, rw := range railWorlds() {
		sn := rw.supernodes()
		p := 0
		for _, ms := range sn {
			p += len(ms)
		}
		S, R := len(sn), 4
		for _, ms := range sn {
			R = min(R, len(ms))
		}
		type result struct {
			in, hier, auto, shard, full []float32
			s                           Shard
		}
		for _, n := range []int{0, 1, 3, S*R - 1, 257, 4099} {
			inputs := make([][]float32, p)
			for r := range inputs {
				inputs[r] = railInput(r, n)
			}
			for _, o := range ops {
				name := fmt.Sprintf("%v n=%d %s", rw, n, o.name)
				ref := refAllReduceHier(inputs, sn, o.op)
				res := make([]result, p)
				rw.run(func(c *Comm) {
					in := func() []float32 { return append([]float32(nil), inputs[c.Rank()]...) }
					x := result{in: in()}
					x.hier = c.AllReduceHier(x.in, o.op)
					x.auto = c.AllReduce(in(), o.op)
					shard, s := c.reduceScatterShard(x.in, o.op, GradWire{})
					if s != c.MyShard(n) || len(shard) != s.Len() {
						t.Errorf("%s rank %d: shard %+v len %d, MyShard %+v", name, c.Rank(), s, len(shard), c.MyShard(n))
						return
					}
					if !bitsEqual(shard, x.auto[s.Lo:s.Hi]) {
						t.Errorf("%s rank %d: ReduceScatterShard != AllReduce[%d:%d]", name, c.Rank(), s.Lo, s.Hi)
					}
					x.shard, x.s = shard, s
					x.full = c.AllGatherShard(append([]float32(nil), shard...), n)
					res[c.Rank()] = x
				})
				if t.Failed() {
					return
				}
				// Checked rank by rank and poisoned afterwards: storage
				// shared with an input or an earlier rank's result shows
				// up as a mismatch here.
				want := ref
				if p < 4 { // AllReduce took the flat ring
					want = append([]float32(nil), res[0].auto...)
				}
				for r, x := range res {
					poison(x.in)
					if !bitsEqual(x.hier, ref) {
						t.Fatalf("%s rank %d: AllReduceHier differs from the reference (or shares storage)", name, r)
					}
					if !bitsEqual(x.auto, want) {
						t.Fatalf("%s rank %d: AllReduce differs from the reference (or shares storage)", name, r)
					}
					if !bitsEqual(x.full, want) {
						t.Fatalf("%s rank %d: AllGatherShard(ReduceScatterShard) != AllReduce (or shares storage)", name, r)
					}
					if !bitsEqual(x.shard, want[x.s.Lo:x.s.Hi]) {
						t.Fatalf("%s rank %d: ReduceScatterShard's result shares storage", name, r)
					}
					poison(x.hier)
					poison(x.auto)
					poison(x.full)
					poison(x.shard)
				}
			}
		}
	}
}

func poison(xs []float32) {
	for i := range xs {
		xs[i] = float32(math.NaN())
	}
}

// r8World is R4's and R8's machine: 32 ranks, 2 per node, 4 supernodes.
func r8World() *World { return NewWorld(32, simnet.New(sunway.TestMachine(4, 4), 2)) }

// TestRailTraffic pins what the rail schedule puts on the
// inter-supernode level of R8's world: in total exactly the bytes the
// leader ring moved (R8's 4 MiB row), as equal pieces spread so that no
// rank injects more than its own rail's ring, 2·(S-1)/S·n/R (+ one
// piece of slack).
func TestRailTraffic(t *testing.T) {
	const S, R = 4, 8
	w := r8World()
	w.Run(func(c *Comm) { c.AllReduce(make([]float32, 4<<20/4), OpSum) })
	if got := w.Stats().Snapshot().Bytes[simnet.MachineLevel]; got != 25165824 {
		t.Fatalf("4 MiB: inter-supernode bytes %d, want 25165824", got)
	}

	// Per sender, at a size where checksumming every message is cheap.
	const n = 64 << 10 / 4
	const piece = 4 * n / (S * R) // bytes; n divides evenly
	w = r8World()
	sent := make([]atomic.Int64, 32)
	topo := w.topo
	w.SetWireFaultFn(func(src, dst int, _ int64) WireFault {
		if topo.LevelOf(src, dst) == simnet.MachineLevel {
			sent[src].Add(1)
		}
		return WireOK
	})
	w.Run(func(c *Comm) { c.AllReduce(make([]float32, n), OpSum) })
	tr := w.Stats().Snapshot()
	if msgs, bytes := tr.Msgs[simnet.MachineLevel], tr.Bytes[simnet.MachineLevel]; msgs*piece != bytes {
		t.Fatalf("inter-supernode messages are not all one %d-byte piece: %d messages, %d bytes", piece, msgs, bytes)
	}
	for r := range sent {
		if got, limit := sent[r].Load()*piece, int64(2*(S-1)*piece+piece); got > limit || got == 0 {
			t.Errorf("rank %d injected %d inter-supernode bytes, want 0 < bytes <= %d", r, got, limit)
		}
	}
}

// TestAllReduceSelector checks Comm.AllReduce's ring-vs-hierarchical
// rule against the virtual clock: on R8's world and on the 2x2x2 world
// the algorithm it picks is never the slower one.
func TestAllReduceSelector(t *testing.T) {
	worlds := map[string]func() *World{
		"r8":    r8World,
		"2x2x2": func() *World { return NewWorld(8, simnet.New(sunway.TestMachine(2, 2), 2)) },
	}
	for name, mk := range worlds {
		for kb := 1; kb <= 4096; kb *= 4 {
			clock := func(f func(c *Comm, d []float32) []float32) float64 {
				w := mk()
				w.Run(func(c *Comm) { f(c, make([]float32, kb*1024/4)) })
				return w.MaxTime()
			}
			ring := clock(func(c *Comm, d []float32) []float32 { return c.AllReduceRing(d, OpSum) })
			hier := clock(func(c *Comm, d []float32) []float32 { return c.AllReduceHier(d, OpSum) })
			auto := clock(func(c *Comm, d []float32) []float32 { return c.AllReduce(d, OpSum) })
			if auto > min(ring, hier) {
				t.Errorf("%s %d KiB: AllReduce took %.4g s; ring %.4g, hierarchical %.4g", name, kb, auto, ring, hier)
			}
		}
	}
}
