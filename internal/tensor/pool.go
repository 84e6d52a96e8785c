package tensor

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// A size-classed pool of raw []float32 buffers for code that stages
// data rather than holding tensors: the mpi wire layer's message
// payloads and flattened receive buffers (which the distributed MoE
// exchange legs carry), the sharded optimizer's flat buffers and
// checkpoint snapshots. Tensors themselves are plain Go allocations.

const (
	// Size classes are powers of two from 1<<minClassBits floats up
	// to 1<<maxClassBits; larger requests fall through to make.
	minClassBits = 6
	maxClassBits = 28
)

var (
	classPools [maxClassBits + 1]sync.Pool

	poolGets     atomic.Int64 // pooled-buffer hits
	poolMisses   atomic.Int64 // class-pool empty, fresh make
	poolReleases atomic.Int64
)

// classFor returns the smallest size class holding n floats, or -1
// when n is out of pooling range.
func classFor(n int) int {
	if n <= 0 {
		return -1
	}
	c := bits.Len(uint(n - 1)) // ceil(log2 n)
	if c < minClassBits {
		c = minClassBits
	}
	if c > maxClassBits {
		return -1
	}
	return c
}

// GetSlice returns a zero-filled pooled []float32 of length n. It is
// safe for concurrent use. Return it with PutSlice when done.
func GetSlice(n int) []float32 {
	c := classFor(n)
	if c < 0 {
		return make([]float32, n)
	}
	if v := classPools[c].Get(); v != nil {
		s := (*v.(*[]float32))[:n]
		clear(s)
		poolGets.Add(1)
		return s
	}
	poolMisses.Add(1)
	return make([]float32, 1<<c)[:n]
}

// PutSlice recycles a slice obtained from GetSlice (or any slice whose
// capacity is exactly a pool size class). Safe for concurrent use; the
// slice must not be used afterwards.
func PutSlice(s []float32) {
	cp := cap(s)
	if c := classFor(cp); c >= 0 && cp == 1<<c {
		full := s[:cp]
		classPools[c].Put(&full)
		poolReleases.Add(1)
	}
}

// PoolStats reports cumulative pool traffic: buffer reuses, fresh
// allocations on pool miss, and releases back to the pool.
func PoolStats() (gets, misses, releases int64) {
	return poolGets.Load(), poolMisses.Load(), poolReleases.Load()
}
