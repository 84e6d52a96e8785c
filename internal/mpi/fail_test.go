package mpi

import (
	"errors"
	"sync/atomic"
	"testing"

	"bagualu/internal/simnet"
)

// A rank blocked in Recv on a peer that dies must get a typed
// RankFailedError instead of hanging.
func TestFailureWakesBlockedReceiver(t *testing.T) {
	w := NewWorld(2, nil)
	var got atomic.Value
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Abandon() // crash without sending
		case 1:
			err := Protect(func() { c.Recv(0, 7) })
			got.Store(err)
		}
	})
	err, _ := got.Load().(error)
	var rf *RankFailedError
	if !errors.As(err, &rf) {
		t.Fatalf("want RankFailedError, got %v", err)
	}
	if rf.Rank != 0 || rf.Detector != 1 {
		t.Fatalf("wrong attribution: %+v", rf)
	}
}

// Data sent before the crash is still delivered; only the following
// receive observes the failure.
func TestPendingDataDrainedBeforeFailure(t *testing.T) {
	w := NewWorld(2, nil)
	var first atomic.Value
	var second atomic.Value
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.SendMsg(1, 1, []float32{42}, nil)
			c.Abandon()
		case 1:
			err := Protect(func() {
				v := c.Recv(0, 1)
				first.Store(v[0])
				c.Recv(0, 2) // never sent
			})
			second.Store(err)
		}
	})
	if v, _ := first.Load().(float32); v != 42 {
		t.Fatalf("pre-crash message lost: got %v", first.Load())
	}
	var rf *RankFailedError
	if err, _ := second.Load().(error); !errors.As(err, &rf) {
		t.Fatalf("want RankFailedError on second recv, got %v", second.Load())
	}
}

// A collective involving a dead rank must error out on every survivor.
func TestCollectiveDetectsDeadRank(t *testing.T) {
	w := NewWorld(4, nil)
	var errs [4]atomic.Value
	w.Run(func(c *Comm) {
		if c.Rank() == 2 {
			c.Abandon()
			return
		}
		err := Protect(func() { c.AllReduce([]float32{float32(c.Rank())}, OpSum) })
		errs[c.Rank()].Store(err)
	})
	for _, r := range []int{0, 1, 3} {
		var rf *RankFailedError
		if err, _ := errs[r].Load().(error); !errors.As(err, &rf) {
			t.Fatalf("rank %d: want RankFailedError, got %v", r, errs[r].Load())
		}
	}
}

// Survivors re-form a working communicator over the remaining ranks
// without the dead rank's participation, with consistent ranks and a
// fresh id disjoint from the parent's tag space.
func TestShrinkAfterFailure(t *testing.T) {
	w := NewWorld(4, nil)
	var sums [4]atomic.Value
	w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			c.Abandon()
			return
		}
		Protect(func() { c.Barrier() }) // absorb the detection
		nc := c.ShrinkTo(c.Survivors())
		if nc.Size() != 3 {
			t.Errorf("shrunk size %d", nc.Size())
		}
		if nc.id < shrinkIDBase {
			t.Errorf("shrink id %d collides with split space", nc.id)
		}
		sum := nc.AllReduce([]float32{1}, OpSum)
		sums[c.Rank()].Store(sum[0])
	})
	for _, r := range []int{0, 2, 3} {
		if v, _ := sums[r].Load().(float32); v != 3 {
			t.Fatalf("rank %d: allreduce over survivors = %v, want 3", r, sums[r].Load())
		}
	}
}

// Every survivor calling ShrinkTo with the same keep set must get the
// same communicator id (tag spaces must agree), and a different keep
// set must get a different id.
func TestShrinkIDDeterministic(t *testing.T) {
	w := NewWorld(4, nil)
	var ids [4]atomic.Int64
	w.Run(func(c *Comm) {
		if c.Rank() == 3 {
			return
		}
		nc := c.ShrinkTo([]int{0, 1, 2})
		ids[c.Rank()].Store(nc.id)
	})
	if a, b := ids[0].Load(), ids[1].Load(); a != b || a != ids[2].Load() {
		t.Fatalf("shrink ids disagree: %d %d %d", a, b, ids[2].Load())
	}
	w2 := NewWorld(4, nil)
	var idA, idB atomic.Int64
	w2.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			idA.Store(c.ShrinkTo([]int{0, 1}).id)
			idB.Store(c.ShrinkTo([]int{0, 2}).id)
		}
	})
	if idA.Load() == idB.Load() {
		t.Fatalf("different keep sets share id %d", idA.Load())
	}
}

// A dropped payload surfaces as a typed PayloadFaultError naming the
// link, and a corrupted payload is caught by the checksum.
func TestWireFaultDetection(t *testing.T) {
	for _, fault := range []WireFault{WireDrop, WireCorrupt} {
		w := NewWorld(2, nil)
		w.SetWireFaultFn(func(src, dst int, seq int64) WireFault {
			if src == 0 && seq == 0 {
				return fault
			}
			return WireOK
		})
		var got atomic.Value
		w.Run(func(c *Comm) {
			switch c.Rank() {
			case 0:
				c.SendMsg(1, 5, []float32{1, 2, 3}, nil)
			case 1:
				got.Store(Protect(func() { c.Recv(0, 5) }))
			}
		})
		var pf *PayloadFaultError
		err, _ := got.Load().(error)
		if !errors.As(err, &pf) {
			t.Fatalf("fault %v: want PayloadFaultError, got %v", fault, err)
		}
		if pf.Src != 0 || pf.Dst != 1 {
			t.Fatalf("fault %v: wrong link: %+v", fault, pf)
		}
		if wantDrop := fault == WireDrop; pf.Dropped != wantDrop {
			t.Fatalf("fault %v: Dropped=%v", fault, pf.Dropped)
		}
	}
}

// Wire checksums must pass on clean traffic, including the FP16
// flattened-exchange path, when injection is armed but idle.
func TestWireChecksumCleanTraffic(t *testing.T) {
	w := NewWorld(4, nil)
	w.SetWireFaultFn(func(src, dst int, seq int64) WireFault { return WireOK })
	w.Run(func(c *Comm) {
		sum := c.AllReduce([]float32{float32(c.Rank() + 1)}, OpSum)
		if sum[0] != 10 {
			t.Errorf("allreduce under armed checksums = %v", sum[0])
		}
	})
}

// A straggler rank must stretch virtual time on every link it touches.
func TestStragglerSlowsLinks(t *testing.T) {
	run := func(mult float64) float64 {
		topo := simnet.Uniform(1e-6, 1<<40)
		w := NewWorld(2, topo)
		if mult > 1 {
			w.SetRankDelay(1, mult)
		}
		w.Run(func(c *Comm) {
			for i := 0; i < 8; i++ {
				if c.Rank() == 0 {
					c.SendMsg(1, i, make([]float32, 1024), nil)
				} else {
					c.Recv(0, i)
				}
			}
		})
		return w.MaxTime()
	}
	base, slow := run(1), run(8)
	if slow < 4*base {
		t.Fatalf("straggler x8: makespan %v vs base %v — delay not applied", slow, base)
	}
}
