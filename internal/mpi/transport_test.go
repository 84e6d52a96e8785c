package mpi

import (
	"errors"
	"sync/atomic"
	"testing"

	"bagualu/internal/metrics"
	"bagualu/internal/simnet"
)

// backoffSim totals the retransmit backoff every sender booked on its
// phase record, in global-rank order.
func backoffSim(w *World) float64 {
	var t float64
	for r := 0; r < w.Size(); r++ {
		t += w.Phases(r).Seconds(metrics.PhaseRetransmit)
	}
	return t
}

// A transient drop under reliable transport must be absorbed by
// retransmission: the payload arrives intact, later than the clean
// path, and the fault never surfaces as an error.
func TestReliableTransportAbsorbsDrop(t *testing.T) {
	run := func(inject bool) (payload []float32, arrive float64, stats *TransportStats, backoff float64) {
		topo := simnet.Uniform(1e-6, 1<<40)
		w := NewWorld(2, topo)
		w.SetWireFaultFn(func(src, dst int, seq int64) WireFault {
			if inject && src == 0 && seq == 0 {
				return WireDrop
			}
			return WireOK
		})
		w.EnableReliableTransport(TransportConfig{})
		var got atomic.Value
		var at atomic.Value
		w.Run(func(c *Comm) {
			switch c.Rank() {
			case 0:
				c.Send(1, 5, []float32{1, 2, 3})
			case 1:
				got.Store(c.Recv(0, 5))
				at.Store(c.Now())
			}
		})
		payload, _ = got.Load().([]float32)
		arrive, _ = at.Load().(float64)
		return payload, arrive, w.Transport(), backoffSim(w)
	}

	clean, cleanAt, cleanStats, _ := run(false)
	faulty, faultyAt, stats, backoff := run(true)
	if len(faulty) != 3 || faulty[0] != 1 || faulty[2] != 3 {
		t.Fatalf("payload after retransmit: %v (clean %v)", faulty, clean)
	}
	if stats.Retransmits() != 1 || stats.Recovered() != 1 {
		t.Fatalf("retransmit accounting: total=%d recovered=%d", stats.Retransmits(), stats.Recovered())
	}
	if cleanStats.Retransmits() != 0 {
		t.Fatalf("clean run retransmitted %d frames", cleanStats.Retransmits())
	}
	if faultyAt <= cleanAt {
		t.Fatalf("retransmit not charged to the clock: faulty arrival %v <= clean %v", faultyAt, cleanAt)
	}
	// The delay must cover at least one ack timeout + backoff + extra
	// wire traversal.
	cfg := TransportConfig{}.withDefaults()
	if min := cfg.backoffDelay(0); faultyAt-cleanAt < min {
		t.Fatalf("retransmit delay %v < timeout+backoff %v", faultyAt-cleanAt, min)
	}
	if backoff <= 0 {
		t.Fatalf("backoff accounting: total=%v", backoff)
	}
}

// Corruption is retransmitted just like a drop, and the delivered
// payload must pass the CRC (i.e. be the intact copy).
func TestReliableTransportAbsorbsCorruption(t *testing.T) {
	w := NewWorld(2, nil)
	w.SetWireFaultFn(func(src, dst int, seq int64) WireFault {
		if src == 0 && seq < 2 {
			return WireCorrupt
		}
		return WireOK
	})
	w.EnableReliableTransport(TransportConfig{})
	var got atomic.Value
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 5, []float32{4, 5, 6})
		case 1:
			err := Protect(func() {
				v := c.Recv(0, 5)
				if v[0] != 4 || v[1] != 5 || v[2] != 6 {
					t.Errorf("corrupted payload delivered: %v", v)
				}
			})
			got.Store([]error{err})
		}
	})
	errs, _ := got.Load().([]error)
	if err := errs[0]; err != nil {
		t.Fatalf("transient corruption escalated: %v", err)
	}
	if w.Transport().Retransmits() != 2 {
		t.Fatalf("want 2 retransmits, got %d", w.Transport().Retransmits())
	}
}

// A persistently lying link must exhaust the retry budget and
// escalate as a typed error carrying Exhausted and the attempt count.
func TestTransportExhaustionEscalates(t *testing.T) {
	w := NewWorld(2, nil)
	w.SetWireFaultFn(func(src, dst int, seq int64) WireFault {
		if src == 0 {
			return WireDrop
		}
		return WireOK
	})
	w.EnableReliableTransport(TransportConfig{MaxRetries: 3})
	var got atomic.Value
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 5, []float32{1})
		case 1:
			got.Store(Protect(func() { c.Recv(0, 5) }))
		}
	})
	var pf *PayloadFaultError
	err, _ := got.Load().(error)
	if !errors.As(err, &pf) {
		t.Fatalf("want PayloadFaultError, got %v", err)
	}
	if !pf.Exhausted || pf.Attempts != 4 || !pf.Dropped || pf.Src != 0 {
		t.Fatalf("escalation fields: %+v", pf)
	}
	if w.Transport().Exhausted() != 1 || w.Transport().Retransmits() != 3 {
		t.Fatalf("exhaustion accounting: exhausted=%d retrans=%d",
			w.Transport().Exhausted(), w.Transport().Retransmits())
	}
}

// The retransmit schedule and its clock charges must be bit-identical
// across runs: the injector verdict depends only on (src, dst, seq)
// and sequence numbers are consumed in sender program order.
func TestTransportDeterministic(t *testing.T) {
	run := func() (float64, int64, float64) {
		topo := simnet.Uniform(1e-6, 1<<40)
		w := NewWorld(4, topo)
		w.SetWireFaultFn(func(src, dst int, seq int64) WireFault {
			if (uint64(src)*2654435761+uint64(seq)*40503)%7 == 0 {
				return WireDrop
			}
			return WireOK
		})
		w.EnableReliableTransport(TransportConfig{MaxRetries: 8})
		w.Run(func(c *Comm) {
			buf := make([]float32, 256)
			for i := range buf {
				buf[i] = float32(c.Rank()*1000 + i)
			}
			for iter := 0; iter < 4; iter++ {
				c.AllReduce(buf, OpSum)
				c.Barrier()
			}
		})
		return w.MaxTime(), w.Transport().Retransmits(), backoffSim(w)
	}
	t1, r1, b1 := run()
	t2, r2, b2 := run()
	if r1 == 0 {
		t.Fatal("schedule injected no drops; test is vacuous")
	}
	if t1 != t2 || r1 != r2 || b1 != b2 {
		t.Fatalf("nondeterministic transport: (%v,%d,%v) vs (%v,%d,%v)", t1, r1, b1, t2, r2, b2)
	}
}

// Receivers must observe the straggler multiplier on incoming links
// via the arrival telemetry, and TakeLinkObservations must reset.
func TestLinkObservations(t *testing.T) {
	topo := simnet.Uniform(1e-6, 1<<30)
	w := NewWorld(2, topo)
	w.SetRankDelay(1, 4)
	var obs atomic.Value
	w.Run(func(c *Comm) {
		for i := 0; i < 4; i++ {
			if c.Rank() == 1 {
				c.Send(0, i, make([]float32, 512))
			} else {
				c.Recv(1, i)
			}
		}
		if c.Rank() == 0 {
			obs.Store(c.TakeLinkObservations())
			if again := c.TakeLinkObservations(); again[1] != 0 {
				t.Errorf("observations not reset: %v", again)
			}
		}
	})
	row, _ := obs.Load().([]float64)
	if row == nil || row[1] < 3.9 || row[1] > 4.1 {
		t.Fatalf("observed multiplier for straggler link: %v (want ~4)", row)
	}
	if row[0] != 0 {
		t.Fatalf("self-observation should be empty: %v", row)
	}
}
