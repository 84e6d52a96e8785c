package tensor

import (
	"sync"
	"testing"
)

func TestPoolGetZeroFilledAndShaped(t *testing.T) {
	a := GetSlice(15)
	if len(a) != 15 || cap(a) != 1<<minClassBits {
		t.Fatalf("GetSlice(15) len %d cap %d", len(a), cap(a))
	}
	for i, v := range a {
		if v != 0 {
			t.Fatalf("GetSlice not zero-filled at %d: %v", i, v)
		}
	}
	for i := range a {
		a[i] = 7
	}
	PutSlice(a)

	// The recycled buffer must come back zeroed.
	b := GetSlice(15)
	for i, v := range b {
		if v != 0 {
			t.Fatalf("recycled GetSlice not zero-filled at %d: %v", i, v)
		}
	}
	PutSlice(b)
}

func TestPoolNoAliasingWithLiveTensor(t *testing.T) {
	// A returned buffer must never be reachable through a slice the
	// caller still holds.
	live := GetSlice(256)
	for i := range live {
		live[i] = 42
	}
	scratch := GetSlice(256)
	PutSlice(scratch)
	// The next same-class GetSlice may reuse scratch's buffer; writing
	// to it must not disturb live.
	reused := GetSlice(256)
	if &reused[0] == &live[0] {
		t.Fatal("pool handed out a buffer still owned by a live slice")
	}
	for i := range reused {
		reused[i] = -1
	}
	for i, v := range live {
		if v != 42 {
			t.Fatalf("live slice corrupted at %d: %v", i, v)
		}
	}
	PutSlice(reused)
	PutSlice(live)
}

func TestPoolOutOfClassFallsBack(t *testing.T) {
	// Requests below the smallest class round up to it; empty requests
	// fall outside the classes but must still work, and a slice whose
	// capacity is no size class is left to the GC.
	if s := GetSlice(1); len(s) != 1 || cap(s) != 1<<minClassBits {
		t.Fatalf("GetSlice(1) len %d cap %d", len(s), cap(s))
	}
	if e := GetSlice(0); len(e) != 0 {
		t.Fatalf("empty GetSlice len %d", len(e))
	}
	_, _, r0 := PoolStats()
	PutSlice(make([]float32, 100))
	if _, _, r1 := PoolStats(); r1 != r0 {
		t.Fatalf("PutSlice pooled a %d-float buffer, which is no size class", 100)
	}
}

func TestPoolConcurrentGetRelease(t *testing.T) {
	// Exercised with -race by verify.sh: concurrent GetSlice/PutSlice
	// on overlapping size classes must not hand the same buffer to two
	// goroutines.
	const workers = 8
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s := GetSlice(7 * (1 + (seed+i)%100))
				for j := range s {
					s[j] = float32(seed)
				}
				for j := range s {
					if s[j] != float32(seed) {
						t.Errorf("buffer shared across goroutines")
						return
					}
				}
				PutSlice(s)
			}
		}(w)
	}
	wg.Wait()
}

func TestPoolStatsAdvance(t *testing.T) {
	g0, m0, r0 := PoolStats()
	PutSlice(GetSlice(128))
	PutSlice(GetSlice(128))
	g1, m1, r1 := PoolStats()
	// Every in-class GetSlice is either a hit or a miss (a GC can empty
	// a sync.Pool, so hits alone are not guaranteed).
	if g1+m1 < g0+m0+2 {
		t.Fatalf("pool gets did not advance: %d+%d -> %d+%d", g0, m0, g1, m1)
	}
	if r1 < r0+2 {
		t.Fatalf("pool releases did not advance: %d -> %d", r0, r1)
	}
}
