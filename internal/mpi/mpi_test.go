package mpi

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"bagualu/internal/metrics"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
)

// testTopo builds a 2-supernode, 2-nodes-per-supernode, 2-ranks-per-
// node topology => 8 ranks spanning all levels.
func testTopo() *simnet.Topology {
	m := sunway.TestMachine(2, 2)
	return simnet.New(m, 2)
}

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2, nil)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.SendMsg(1, 7, []float32{1, 2, 3}, nil)
		} else {
			got := c.Recv(0, 7)
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("Recv = %v", got)
			}
		}
	})
}

func TestSendRecvIntsAndAnySource(t *testing.T) {
	w := NewWorld(3, nil)
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0, 1:
			c.SendMsg(2, 1, nil, []int{c.Rank() + 10})
		case 2:
			_, a := c.RecvMsg(AnySource, 1)
			_, b := c.RecvMsg(AnySource, 1)
			sum := a[0] + b[0]
			if sum != 21 {
				t.Errorf("ints sum = %d", sum)
			}
		}
	})
}

func TestTagIsolation(t *testing.T) {
	// Messages with different tags must not cross-match, regardless
	// of send order.
	w := NewWorld(2, nil)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.SendMsg(1, 5, []float32{5}, nil)
			c.SendMsg(1, 4, []float32{4}, nil)
		} else {
			if got := c.Recv(0, 4); got[0] != 4 {
				t.Errorf("tag 4 got %v", got)
			}
			if got := c.Recv(0, 5); got[0] != 5 {
				t.Errorf("tag 5 got %v", got)
			}
		}
	})
}

func TestVirtualTimeAdvances(t *testing.T) {
	topo := testTopo()
	w := NewWorld(8, topo)
	var times [8]float64
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.SendMsg(7, 0, make([]float32, 1024), nil)
		} else if c.Rank() == 7 {
			c.Recv(0, 0)
		}
		times[c.Rank()] = c.Now()
	})
	if times[7] <= 0 {
		t.Fatal("receiver clock did not advance")
	}
	// Rank 0 -> 7 crosses supernodes; cost must be at least the
	// machine-level alpha.
	if times[7] < topo.Alpha[simnet.MachineLevel] {
		t.Fatalf("cross-supernode recv time %v < alpha %v", times[7], topo.Alpha[simnet.MachineLevel])
	}
	if w.MaxTime() < times[7] {
		t.Fatalf("MaxTime %v < receiver time %v", w.MaxTime(), times[7])
	}
}

// TestPhaseRecordPerRank: a rank has one phase record. Its world
// communicator, a Split, Self and a ShrinkTo survivor communicator all
// reach it; a booking made inside a request body lands in it (the
// reliable transport books a retransmit's backoff on the sender); and
// what Compute books is exactly what it advanced the clock by, a
// straggler's stretch included.
func TestPhaseRecordPerRank(t *testing.T) {
	const n = 4
	w := NewWorld(n, testTopo())
	w.SetRankDelay(3, 2.5)
	w.SetWireFaultFn(func(src, dst int, seq int64) WireFault {
		if src == 0 && seq == 0 {
			return WireDrop // rank 0's first frame: the request's send below
		}
		return WireOK
	})
	w.EnableReliableTransport(TransportConfig{})
	clocks := make([]float64, n)
	w.Run(func(c *Comm) {
		rec := c.Phases()
		// From clock 0, so the clock is the sum of the charges.
		c.Compute(1e-3, metrics.PhaseCompute)
		c.Self().Compute(2e-3, metrics.PhaseCompute)
		clocks[c.Rank()] = c.Now()
		switch c.Rank() {
		case 0:
			c.Start(func() { c.SendMsg(1, 7, []float32{1, 2}, nil) }).Wait()
		case 1:
			c.Recv(0, 7)
		}
		comms := map[string]*Comm{"world": c, "split": c.Split(c.Rank()%2, c.Rank()), "self": c.Self()}
		if c.Rank() < 3 {
			comms["shrink"] = c.ShrinkTo([]int{0, 1, 2})
		}
		for name, cc := range comms {
			if cc.Phases() != rec || w.Phases(c.Rank()) != rec {
				t.Errorf("rank %d: the %s communicator reaches another record", c.Rank(), name)
			}
		}
	})
	for r := 0; r < n; r++ {
		rec := w.Phases(r)
		if got := rec.Seconds(metrics.PhaseCompute); got != clocks[r] || got <= 0 {
			t.Errorf("rank %d: Compute booked %v, the clock advanced %v", r, got, clocks[r])
		}
		want := 0.0
		if r == 0 {
			want = TransportConfig{}.withDefaults().backoffDelay(0)
		}
		if got := rec.Seconds(metrics.PhaseRetransmit); got != want {
			t.Errorf("rank %d: retransmit backoff %v, want %v", r, got, want)
		}
	}
	if clocks[3] <= clocks[0] {
		t.Errorf("straggler's charges not stretched: %v vs %v", clocks[3], clocks[0])
	}
}

func TestComputeCharging(t *testing.T) {
	w := NewWorld(1, nil)
	w.Run(func(c *Comm) {
		c.Compute(1.5, metrics.PhaseCompute)
		if c.Now() != 1.5 {
			t.Errorf("Now = %v", c.Now())
		}
	})
	if w.MaxTime() != 1.5 {
		t.Errorf("MaxTime = %v", w.MaxTime())
	}
}

func TestIntraNodeCheaperThanInterSupernode(t *testing.T) {
	topo := testTopo()
	payload := make([]float32, 4096)

	timeFor := func(dst int) float64 {
		w := NewWorld(8, topo)
		w.Run(func(c *Comm) {
			switch c.Rank() {
			case 0:
				c.SendMsg(dst, 0, payload, nil)
			case dst:
				c.Recv(0, 0)
			}
		})
		return w.MaxTime()
	}
	intra := timeFor(1) // same node
	inter := timeFor(7) // different supernode
	if intra >= inter {
		t.Fatalf("intra-node %v !< inter-supernode %v", intra, inter)
	}
}

func TestBarrier(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		w := NewWorld(p, nil)
		var mu sync.Mutex
		phase1 := 0
		w.Run(func(c *Comm) {
			mu.Lock()
			phase1++
			mu.Unlock()
			c.Barrier()
			mu.Lock()
			if phase1 != p {
				t.Errorf("p=%d: rank %d passed barrier with %d/%d arrived", p, c.Rank(), phase1, p)
			}
			mu.Unlock()
		})
	}
}

func TestBcastAllSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 7, 8} {
		for root := 0; root < p; root += 2 {
			w := NewWorld(p, nil)
			w.Run(func(c *Comm) {
				var data []float32
				if c.Rank() == root {
					data = []float32{42, float32(root)}
				}
				got := c.Bcast(root, data)
				if len(got) != 2 || got[0] != 42 || got[1] != float32(root) {
					t.Errorf("p=%d root=%d rank=%d: Bcast = %v", p, root, c.Rank(), got)
				}
			})
		}
	}
}

func TestReduce(t *testing.T) {
	for _, p := range []int{1, 2, 3, 6, 8} {
		w := NewWorld(p, nil)
		w.Run(func(c *Comm) {
			data := []float32{float32(c.Rank()), 1}
			got := c.Reduce(0, data, OpSum)
			if c.Rank() == 0 {
				wantSum := float32(p * (p - 1) / 2)
				if got[0] != wantSum || got[1] != float32(p) {
					t.Errorf("p=%d: Reduce = %v", p, got)
				}
			} else if got != nil {
				t.Errorf("non-root got %v", got)
			}
		})
	}
}

func TestReduceDoesNotModifyInput(t *testing.T) {
	w := NewWorld(4, nil)
	w.Run(func(c *Comm) {
		data := []float32{1}
		c.Reduce(0, data, OpSum)
		if data[0] != 1 {
			t.Errorf("rank %d: input modified to %v", c.Rank(), data[0])
		}
	})
}

func checkAllReduce(t *testing.T, name string, p, n int, f func(c *Comm, data []float32) []float32) {
	t.Helper()
	topo := testTopo()
	if p > 8 {
		topo = nil
	}
	w := NewWorld(p, topo)
	w.Run(func(c *Comm) {
		data := make([]float32, n)
		for i := range data {
			data[i] = float32(c.Rank()*n + i)
		}
		got := f(c, data)
		if len(got) != n {
			t.Errorf("%s p=%d n=%d: result length %d", name, p, n, len(got))
			return
		}
		for i := range got {
			var want float32
			for r := 0; r < p; r++ {
				want += float32(r*n + i)
			}
			if math.Abs(float64(got[i]-want)) > 1e-3 {
				t.Errorf("%s p=%d n=%d rank=%d: got[%d]=%v want %v", name, p, n, c.Rank(), i, got[i], want)
				return
			}
		}
	})
}

func TestAllReduceRing(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8} {
		for _, n := range []int{1, 7, 64} {
			if n < p { // ring chunks may be empty; still must work
				checkAllReduce(t, "ring-small", p, n, func(c *Comm, d []float32) []float32 { return c.AllReduceRing(d, OpSum) })
				continue
			}
			checkAllReduce(t, "ring", p, n, func(c *Comm, d []float32) []float32 { return c.AllReduceRing(d, OpSum) })
		}
	}
}

func TestAllReduceHier(t *testing.T) {
	for _, n := range []int{8, 64} {
		checkAllReduce(t, "hier", 8, n, func(c *Comm, d []float32) []float32 { return c.AllReduceHier(d, OpSum) })
	}
}

func TestAllReduceAuto(t *testing.T) {
	checkAllReduce(t, "auto", 8, 32, func(c *Comm, d []float32) []float32 { return c.AllReduce(d, OpSum) })
	checkAllReduce(t, "auto-small", 2, 16, func(c *Comm, d []float32) []float32 { return c.AllReduce(d, OpSum) })
}

func TestAllReduceMax(t *testing.T) {
	w := NewWorld(4, nil)
	w.Run(func(c *Comm) {
		data := []float32{float32(c.Rank()), -float32(c.Rank())}
		got := c.AllReduceRing(data, OpMax)
		if got[0] != 3 || got[1] != 0 {
			t.Errorf("rank %d: max = %v", c.Rank(), got)
		}
	})
}

func TestHierReducesInterSupernodeTraffic(t *testing.T) {
	topo := testTopo() // 8 ranks, 2 supernodes
	n := 1 << 12

	run := func(f func(c *Comm, d []float32) []float32) (int64, float64) {
		w := NewWorld(8, topo)
		w.Run(func(c *Comm) {
			d := make([]float32, n)
			f(c, d)
		})
		return w.Stats().Snapshot().Msgs[simnet.MachineLevel], w.MaxTime()
	}
	ringMsgs, _ := run(func(c *Comm, d []float32) []float32 { return c.AllReduceRing(d, OpSum) })
	hierMsgs, _ := run(func(c *Comm, d []float32) []float32 { return c.AllReduceHier(d, OpSum) })
	if hierMsgs >= ringMsgs {
		t.Fatalf("hier inter-SN msgs %d !< ring %d", hierMsgs, ringMsgs)
	}
}

func TestAllGather(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8} {
		w := NewWorld(p, nil)
		w.Run(func(c *Comm) {
			data := []float32{float32(c.Rank()), float32(c.Rank() * 10)}
			got := c.AllGather(data)
			if len(got) != 2*p {
				t.Errorf("p=%d: AllGather len %d", p, len(got))
				return
			}
			for r := 0; r < p; r++ {
				if got[2*r] != float32(r) || got[2*r+1] != float32(r*10) {
					t.Errorf("p=%d rank=%d: chunk %d = %v", p, c.Rank(), r, got[2*r:2*r+2])
				}
			}
		})
	}
}

func TestAllGatherInts(t *testing.T) {
	w := NewWorld(4, nil)
	w.Run(func(c *Comm) {
		got := c.AllGatherInts([]int{c.Rank() * 2})
		for r := 0; r < 4; r++ {
			if got[r] != r*2 {
				t.Errorf("AllGatherInts = %v", got)
			}
		}
	})
}

func TestSplit(t *testing.T) {
	w := NewWorld(8, nil)
	w.Run(func(c *Comm) {
		color := c.Rank() % 2
		sub := c.Split(color, c.Rank())
		if sub.Size() != 4 {
			t.Errorf("rank %d: sub size %d", c.Rank(), sub.Size())
			return
		}
		if sub.Rank() != c.Rank()/2 {
			t.Errorf("rank %d: sub rank %d", c.Rank(), sub.Rank())
		}
		// Collectives on the sub-communicator must only see members.
		got := c.AllGatherInts([]int{c.Rank()})
		if len(got) != 8 {
			t.Errorf("world allgather broke after split: %v", got)
		}
		sum := sub.AllReduceRing([]float32{float32(c.Rank())}, OpSum)
		var want float32
		for r := color; r < 8; r += 2 {
			want += float32(r)
		}
		if sum[0] != want {
			t.Errorf("rank %d: sub allreduce %v want %v", c.Rank(), sum[0], want)
		}
	})
}

func TestSplitNegativeColor(t *testing.T) {
	w := NewWorld(4, nil)
	w.Run(func(c *Comm) {
		color := 0
		if c.Rank() == 3 {
			color = -1
		}
		sub := c.Split(color, 0)
		if c.Rank() == 3 {
			if sub != nil {
				t.Error("negative color must yield nil comm")
			}
			return
		}
		if sub.Size() != 3 {
			t.Errorf("sub size %d", sub.Size())
		}
		sub.Barrier()
	})
}

func TestNestedSplitTagIsolation(t *testing.T) {
	// Run collectives on world, child, and grandchild communicators
	// in interleaved order; tags must never cross.
	w := NewWorld(8, nil)
	w.Run(func(c *Comm) {
		half := c.Split(c.Rank()/4, c.Rank())
		quarter := half.Split(half.Rank()/2, half.Rank())
		for iter := 0; iter < 3; iter++ {
			s1 := c.AllReduceRing([]float32{1}, OpSum)
			s2 := half.AllReduceRing([]float32{1}, OpSum)
			s3 := quarter.AllReduceRing([]float32{1}, OpSum)
			if s1[0] != 8 || s2[0] != 4 || s3[0] != 2 {
				t.Errorf("iter %d rank %d: sums %v %v %v", iter, c.Rank(), s1[0], s2[0], s3[0])
				return
			}
		}
	})
}

func TestStatsCountsBytes(t *testing.T) {
	topo := testTopo()
	w := NewWorld(2, topo)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.SendMsg(1, 0, make([]float32, 100), nil)
		} else {
			c.Recv(0, 0)
		}
	})
	if got := w.Stats().Snapshot().Bytes[simnet.NodeLevel]; got != 400 {
		t.Fatalf("bytes = %d, want 400", got)
	}
	if got := w.Stats().Snapshot().Msgs[simnet.NodeLevel]; got != 1 {
		t.Fatalf("msgs = %d, want 1", got)
	}
}

func TestWorldPanicsPropagate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected propagated panic")
		}
	}()
	w := NewWorld(2, nil)
	w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
		// Rank 0 blocks forever; the panic must unblock it.
		c.Recv(1, 0)
	})
}

func TestManyRanksSmoke(t *testing.T) {
	m := sunway.TestMachine(4, 8)
	topo := simnet.New(m, 2) // 64 ranks
	w := NewWorld(64, topo)
	w.Run(func(c *Comm) {
		sum := c.AllReduce([]float32{1}, OpSum)
		if sum[0] != 64 {
			t.Errorf("allreduce = %v", sum[0])
		}
		sb := buildSendBuf(c.Rank(), c.Size(), func(int) int { return 1 })
		rb := c.AllToAllv(sb, FP32Wire)
		sb.Release()
		checkRecvBuf(t, c.Rank(), rb, func(int, int) int { return 1 }, allRanks(c.Size()))
		rb.Release()
	})
}

func BenchmarkAllReduceRing8(b *testing.B) {
	benchAllReduce(b, func(c *Comm, d []float32) []float32 { return c.AllReduceRing(d, OpSum) })
}

func BenchmarkAllReduceHier8(b *testing.B) {
	benchAllReduce(b, func(c *Comm, d []float32) []float32 { return c.AllReduceHier(d, OpSum) })
}

func benchAllReduce(b *testing.B, f func(c *Comm, d []float32) []float32) {
	topo := testTopo()
	for i := 0; i < b.N; i++ {
		w := NewWorld(8, topo)
		w.Run(func(c *Comm) {
			d := make([]float32, 1<<14)
			f(c, d)
		})
	}
}

func ExampleComm_AllReduce() {
	w := NewWorld(4, nil)
	w.Run(func(c *Comm) {
		sum := c.AllReduce([]float32{float32(c.Rank())}, OpSum)
		if c.Rank() == 0 {
			fmt.Println(sum[0])
		}
	})
	// Output: 6
}
