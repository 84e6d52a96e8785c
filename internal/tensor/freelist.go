package tensor

import "sync"

// freeList is a stack of recycled small values: the GEMM descriptors,
// packed B panels and kernel wait groups. A sync.Pool drops its
// contents every second garbage collection, so how many of them a step
// re-allocated would follow the collector's timing, and the step
// benchmarks' allocation gates read a different count run to run. A
// free list keeps what it is given: a workload stops allocating them
// once it has reached its peak use, and the list holds no more than
// were ever out at once.
type freeList[T any] struct {
	mu   sync.Mutex
	free []T
}

// get pops a recycled value; ok is false when the list is empty.
func (l *freeList[T]) get() (v T, ok bool) {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		var zero T
		v, ok = l.free[n-1], true
		l.free[n-1] = zero
		l.free = l.free[:n-1]
	}
	l.mu.Unlock()
	return v, ok
}

// put recycles v.
func (l *freeList[T]) put(v T) {
	l.mu.Lock()
	l.free = append(l.free, v)
	l.mu.Unlock()
}
