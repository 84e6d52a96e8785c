package mpi

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
)

// gatherMachines are the topologies TestGatherDissemination samples: a
// flat network, and supernode machines whose partners rank+2^k reach
// every tier.
var gatherMachines = []struct {
	name string
	topo *simnet.Topology
}{
	{"flat", simnet.Uniform(1e-6, 8)},
	{"sn2x2r2", simnet.New(sunway.TestMachine(2, 2), 2)},
	{"sn2x4r1", simnet.New(sunway.TestMachine(2, 4), 1)},
	{"sn2x4r2", simnet.New(sunway.TestMachine(2, 4), 2)},
}

// gatherClocks is the dissemination gather's schedule on an idle world
// of p ranks, derived from the send rule alone: in round k every rank
// injects its first min(2^k, p-2^k) blocks to rank+2^k and then waits
// for rank-2^k's, which arrive α + nβ after that sender started, at the
// tier between the two. It returns each rank's completion clock and the
// messages and bytes per tier.
func gatherClocks(topo *simnet.Topology, p, blockBytes int) ([]float64, simnet.Traffic) {
	var tr simnet.Traffic
	t := make([]float64, p)
	for d := 1; d < p; d <<= 1 {
		nb := min(d, p-d) * blockBytes
		next := make([]float64, p)
		for r := range t {
			out := topo.LevelOf(r, (r+d)%p)
			tr.Msgs[out]++
			tr.Bytes[out] += int64(nb)
			src := (r - d + p) % p
			in := topo.LevelOf(src, r)
			next[r] = max(t[r]+float64(nb)*topo.Beta[out], t[src]+topo.Alpha[in]+float64(nb)*topo.Beta[in])
		}
		t = next
	}
	return t, tr
}

// TestGatherDissemination runs AllGather and AllGatherInts with 0–3
// elements per rank on 1–9 ranks of each gatherMachines topology, every
// run on a fresh, idle world. The result is the rank-order
// concatenation; the traffic is ⌈log₂P⌉ messages per rank at the tiers
// gatherClocks derives; every rank's clock ends where gatherClocks puts
// it. Barrier is the zero-length case and keeps the clocks it had as a
// loop of its own: their hash over every machine and size is pinned.
func TestGatherDissemination(t *testing.T) {
	barrier := fnv.New64a()
	for _, m := range gatherMachines {
		name, topo := m.name, m.topo
		for p := 1; p <= 9; p++ {
			rounds := 0
			for d := 1; d < p; d <<= 1 {
				rounds++
			}
			for n := 0; n <= 3; n++ {
				for _, ints := range []bool{false, true} {
					tc := fmt.Sprintf("%s P=%d n=%d ints=%v", name, p, n, ints)
					w := NewWorld(p, topo)
					done := make([]float64, p)
					w.Run(func(c *Comm) {
						r := c.Rank()
						var got []float64
						if ints {
							xs := make([]int, n)
							for i := range xs {
								xs[i] = 100*r + i
							}
							for _, v := range c.AllGatherInts(xs) {
								got = append(got, float64(v))
							}
						} else {
							xs := make([]float32, n)
							for i := range xs {
								xs[i] = float32(100*r+i) + 0.5
							}
							for _, v := range c.AllGather(xs) {
								got = append(got, float64(v))
							}
						}
						done[r] = c.Now()
						if len(got) != n*p {
							t.Errorf("%s rank %d: %d elements, want %d", tc, r, len(got), n*p)
							return
						}
						for q := 0; q < p; q++ {
							for i := 0; i < n; i++ {
								want := float64(100*q + i)
								if !ints {
									want += 0.5
								}
								if got[q*n+i] != want {
									t.Errorf("%s rank %d: block %d element %d = %v, want %v", tc, r, q, i, got[q*n+i], want)
									return
								}
							}
						}
					})
					size := 4
					if ints {
						size = 8
					}
					clocks, traffic := gatherClocks(topo, p, n*size)
					if got := w.Stats().Snapshot(); got != traffic {
						t.Errorf("%s: traffic %+v, want %+v (%d messages per rank)", tc, got, traffic, rounds)
					}
					for r := range clocks {
						if done[r] != clocks[r] {
							t.Errorf("%s rank %d: clock %v, want %v", tc, r, done[r], clocks[r])
						}
					}
				}
			}
			w := NewWorld(p, topo)
			done := make([]float64, p)
			w.Run(func(c *Comm) {
				c.Barrier()
				done[c.Rank()] = c.Now()
			})
			clocks, _ := gatherClocks(topo, p, 0)
			for r := range clocks {
				if done[r] != clocks[r] {
					t.Errorf("%s P=%d Barrier rank %d: clock %v, want %v", name, p, r, done[r], clocks[r])
				}
				fmt.Fprintf(barrier, "%s %d %d %x\n", name, p, r, math.Float64bits(done[r]))
			}
		}
	}
	// Recorded from Barrier's own loop before the gathers shared it.
	const barrierClocks = 0x90901b7d090955c
	if got := barrier.Sum64(); got != barrierClocks {
		t.Errorf("Barrier clocks hash %#x, want %#x", got, uint64(barrierClocks))
	}
}
