package mpi

import (
	"testing"
)

func TestSendPooledRoundTrip(t *testing.T) {
	w := NewWorld(2, nil)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for mb := 0; mb < 3; mb++ {
				data := []float32{float32(mb), float32(mb) + 0.5, -1}
				c.SendPooled(1, 100+mb, data)
			}
		} else {
			buf := make([]float32, 3)
			for mb := 0; mb < 3; mb++ {
				c.RecvPooledInto(buf, 0, 100+mb)
				if buf[0] != float32(mb) || buf[1] != float32(mb)+0.5 || buf[2] != -1 {
					t.Errorf("mb %d: got %v", mb, buf)
				}
			}
		}
	})
}

// TestSendPooledMatchesSendPricing pins that the pooled path pays the
// same virtual-clock cost as the generic Send: the pooling is a
// buffer-lifetime optimization, not a pricing change.
func TestSendPooledMatchesSendPricing(t *testing.T) {
	payload := make([]float32, 1024)
	var plain, pooled float64
	w := NewWorld(2, nil)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.SendMsg(1, 1, payload, nil)
		} else {
			c.Recv(0, 1)
			plain = c.Now()
		}
	})
	w2 := NewWorld(2, nil)
	w2.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.SendPooled(1, 1, payload)
		} else {
			buf := make([]float32, len(payload))
			c.RecvPooledInto(buf, 0, 1)
			pooled = c.Now()
		}
	})
	if plain != pooled {
		t.Fatalf("pooled recv clock %v != plain %v", pooled, plain)
	}
}

// TestSendPooledSteadyStateAllocFree pins the satellite fix: boundary
// activation traffic must reuse pooled staging buffers, so a warmed
// send/recv pair allocates nothing per message.
func TestSendPooledSteadyStateAllocFree(t *testing.T) {
	w := NewWorld(2, nil)
	w.Run(func(c *Comm) {
		const rounds = 64
		data := make([]float32, 4096)
		if c.Rank() == 0 {
			for i := 0; i < rounds; i++ {
				c.SendPooled(1, i, data)
				c.RecvPooledInto(data, 1, 1000+i)
			}
		} else {
			buf := make([]float32, 4096)
			for i := 0; i < rounds; i++ {
				c.RecvPooledInto(buf, 0, i)
				c.SendPooled(0, 1000+i, buf)
			}
		}
	})
	// After the ping-pong the pool holds the staging buffers; a fresh
	// send/recv world reusing the same sizes must not grow it. (The
	// strict per-op alloc gate lives in BenchmarkTrainStep; this test
	// just exercises release on both payload paths.)
}
