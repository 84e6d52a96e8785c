package mpi

import (
	"fmt"
	"math"
	"testing"

	"bagualu/internal/half"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
)

// gradInput is rank r's contribution on the FP16 grid at scale: a
// window at offset off of a seeded stream of h/scale values, h finite
// FP16 of every binade, one in eight in the top one — two of those with
// one sign overflow FP16 when summed — with ±Inf and NaN planted at rate
// 1/64 when special is set.
func gradInput(rng *tensor.RNG, n, off int, scale float32, special bool) []float32 {
	stream := make([]float32, off+n)
	for i := range stream {
		h := float32(rng.Float64()) * float32(math.Ldexp(1, rng.Intn(40)-24))
		if rng.Intn(8) == 0 {
			h = 32768 + float32(rng.Float64())*(half.MaxFloat16-32768)
		}
		if rng.Intn(2) == 0 {
			h = -h
		}
		stream[i] = half.FromFloat32(h).Float32() / scale
		if special && rng.Intn(64) == 0 {
			stream[i] = [...]float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}[rng.Intn(3)]
		}
	}
	return stream[off:]
}

// sameFloat reports whether a and b are the same float32 bits, or both
// NaN.
func sameFloat(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// TestGradWireRoundsOnce is the 16-bit gradient wire's one-rounding
// rule, generated: over the ring at P = 2…5 and the rail schedule on
// four supernodes of two ranks and two of four, at seeded lengths,
// stream offsets and power-of-two scales 2^0…2^16, AllReduceGrads
// returns on every rank exactly the FP32 AllReduce's sum rounded once
// to FP16 at the scale — ±Inf and NaN carried through, a sum past the
// FP16 range turned to ±Inf — and ReduceScatterShard returns those
// bits on its owned range. At P = 2 every hop is 16-bit: the sync moves
// exactly half the FP32 bytes.
func TestGradWireRoundsOnce(t *testing.T) {
	type shape struct {
		name string
		p    int
		topo *simnet.Topology
	}
	var shapes []shape
	for p := 2; p <= 5; p++ {
		shapes = append(shapes, shape{fmt.Sprintf("ring%d", p), p, nil})
	}
	shapes = append(shapes,
		shape{"rails4x2", 8, simnet.New(sunway.TestMachine(4, 1), 2)},
		shape{"rails2x4", 8, simnet.New(sunway.TestMachine(2, 2), 2)})
	rng := tensor.NewRNG(37)
	for _, sh := range shapes {
		for trial := 0; trial < 12; trial++ {
			n, off := rng.Intn(300), rng.Intn(17)
			if trial == 0 {
				n = rng.Intn(sh.p) // fewer elements than ranks: empty chunks
			}
			w := GradWire{Scale: float32(math.Ldexp(1, rng.Intn(17)))}
			special := trial%3 == 2
			seed := rng.Uint64()
			name := fmt.Sprintf("%s/n%d+%d/scale%g/special%v", sh.name, n, off, w.Scale, special)
			ref := make([][]float32, sh.p)
			got := make([][]float32, sh.p)
			shards := make([][]float32, sh.p)
			bounds := make([]Shard, sh.p)
			hier := make([]bool, sh.p)
			NewWorld(sh.p, sh.topo).Run(func(c *Comm) {
				in := gradInput(tensor.NewRNG(seed+uint64(c.Rank())), n, off, w.Scale, special)
				r := c.Rank()
				ref[r] = c.AllReduce(in, OpSum)
				got[r] = c.AllReduceGrads(append([]float32(nil), in...), w) // reduced in place
				shards[r], bounds[r] = c.ReduceScatterShard(in, w)
				hier[r] = c.Hierarchical()
			})
			if hier[0] != (sh.topo != nil) {
				t.Fatalf("%s: Hierarchical %v", name, hier[0])
			}
			for r := range got {
				for i, v := range ref[r] {
					want := half.FromFloat32(v*w.Scale).Float32() * (1 / w.Scale)
					if !sameFloat(got[r][i], want) {
						t.Fatalf("%s rank %d elem %d: AllReduceGrads %v (%#08x), round16 of the FP32 sum %v is %v (%#08x)",
							name, r, i, got[r][i], math.Float32bits(got[r][i]), v, want, math.Float32bits(want))
					}
				}
				for i, v := range shards[r] {
					if want := got[r][bounds[r].Lo+i]; !sameFloat(v, want) {
						t.Fatalf("%s rank %d: ReduceScatterShard elem %d is %v, AllReduceGrads has %v", name, r, bounds[r].Lo+i, v, want)
					}
				}
			}
		}
	}

	bytes := func(sync func(c *Comm, in []float32)) int64 {
		w := NewWorld(2, nil)
		w.Run(func(c *Comm) { sync(c, gradInput(tensor.NewRNG(uint64(c.Rank())), 1001, 0, 1024, false)) })
		return w.Stats().Snapshot().TotalBytes()
	}
	fp32 := bytes(func(c *Comm, in []float32) { c.AllReduce(in, OpSum) })
	fp16 := bytes(func(c *Comm, in []float32) { c.AllReduceGrads(in, GradWire{Scale: 1024}) })
	if 2*fp16 != fp32 {
		t.Fatalf("P=2: the 16-bit sync moved %d bytes, FP32 %d", fp16, fp32)
	}
}
