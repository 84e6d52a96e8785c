package mpi

import (
	"math"
	"testing"
	"testing/quick"

	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
)

// Property-based fuzzing of the collectives: for randomized world
// sizes, payload lengths, and contents, every algorithm must agree
// with a serially-computed reference.

func fuzzTopo(ranks int) *simnet.Topology {
	nodes := (ranks + 1) / 2
	sns := (nodes + 1) / 2
	if sns < 1 {
		sns = 1
	}
	return simnet.New(sunway.TestMachine(sns, 2), 2)
}

func TestPropAllReduceMatchesSerialSum(t *testing.T) {
	f := func(seed uint64, pRaw, nRaw uint8) bool {
		p := int(pRaw)%7 + 1
		n := int(nRaw)%33 + 1
		r := tensor.NewRNG(seed)
		inputs := make([][]float32, p)
		want := make([]float64, n)
		for rank := 0; rank < p; rank++ {
			inputs[rank] = make([]float32, n)
			for i := range inputs[rank] {
				v := r.Float32()*2 - 1
				inputs[rank][i] = v
				want[i] += float64(v)
			}
		}
		ok := true
		for _, algo := range []func(c *Comm, d []float32) []float32{
			func(c *Comm, d []float32) []float32 { return c.AllReduceRing(d, OpSum) },
			func(c *Comm, d []float32) []float32 { return c.AllReduceHier(d, OpSum) },
		} {
			w := NewWorld(p, fuzzTopo(p))
			w.Run(func(c *Comm) {
				got := algo(c, inputs[c.Rank()])
				for i := range got {
					if math.Abs(float64(got[i])-want[i]) > 1e-4 {
						ok = false
					}
				}
			})
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropAllToAllAlgorithmsAgreeFuzz runs algorithmsAgree on
// random world sizes, per-pair counts (zero included), payloads,
// metadata and codecs.
func TestPropAllToAllAlgorithmsAgreeFuzz(t *testing.T) {
	f := func(seed uint64, pRaw, codecRaw uint8) bool {
		p := int(pRaw)%8 + 1
		codec := []Codec{FP32Wire, FP16Wire}[codecRaw%2]
		r := tensor.NewRNG(seed)
		counts := make([][]int, p) // [src][dst]
		vals := make([][][]float32, p)
		metas := make([][][]int, p)
		for s := 0; s < p; s++ {
			counts[s] = make([]int, p)
			vals[s] = make([][]float32, p)
			metas[s] = make([][]int, p)
			for d := 0; d < p; d++ {
				counts[s][d] = r.Intn(5)
				vals[s][d] = make([]float32, counts[s][d])
				for i := range vals[s][d] {
					vals[s][d][i] = r.Float32()*2 - 1
				}
				metas[s][d] = make([]int, r.Intn(3))
				for i := range metas[s][d] {
					metas[s][d][i] = r.Intn(1000)
				}
			}
		}
		fill := func(rank int) *SendBuf {
			sb := NewSendBuf(counts[rank])
			for d := 0; d < p; d++ {
				sb.Append(d, vals[rank][d])
				sb.SetMeta(d, metas[rank][d])
			}
			return sb
		}
		if err := algorithmsAgree(p, fuzzTopo(p), codec, fill); err != nil {
			t.Logf("p=%d codec=%v: %v", p, codec, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestPropBcastReduceDual(t *testing.T) {
	// Reduce of all-ones then Bcast must deliver the world size to
	// every rank, for any size and root.
	f := func(pRaw, rootRaw uint8) bool {
		p := int(pRaw)%9 + 1
		root := int(rootRaw) % p
		ok := true
		w := NewWorld(p, nil)
		w.Run(func(c *Comm) {
			red := c.Reduce(root, []float32{1}, OpSum)
			var out []float32
			if c.Rank() == root {
				out = red
			}
			got := c.Bcast(root, out)
			if got[0] != float32(p) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestPropAllToAllvFramingRoundTrip fuzzes the flattened wire format:
// random world sizes, per-pair counts, payloads, and metadata lists
// must round-trip through every algorithm × codec × receive mode,
// with the counts header always matching the absorbed chunk sizes.
func TestPropAllToAllvFramingRoundTrip(t *testing.T) {
	f := func(seed uint64, pRaw, mode uint8) bool {
		p := int(pRaw)%8 + 1
		r := tensor.NewRNG(seed)
		counts := make([][]int, p)  // [src][dst] floats
		metas := make([][][]int, p) // [src][dst] metadata
		vals := make([][][]float32, p)
		for s := 0; s < p; s++ {
			counts[s] = make([]int, p)
			metas[s] = make([][]int, p)
			vals[s] = make([][]float32, p)
			for d := 0; d < p; d++ {
				counts[s][d] = r.Intn(7)
				vals[s][d] = make([]float32, counts[s][d])
				for i := range vals[s][d] {
					// Small integers survive FP16 exactly, so both
					// codecs can be checked for exact round-trip.
					vals[s][d][i] = float32(r.Intn(512)) - 256
				}
				nm := r.Intn(4)
				metas[s][d] = make([]int, nm)
				for i := range metas[s][d] {
					metas[s][d][i] = s*10000 + d*100 + i
				}
			}
		}
		ok := true
		check := func(c *Comm, rb *RecvBuf) {
			for s := 0; s < p; s++ {
				want := vals[s][c.Rank()]
				if rb.Count(s) != len(want) {
					ok = false
					return
				}
				chunk := rb.Chunk(s)
				for i := range want {
					if chunk[i] != want[i] {
						ok = false
						return
					}
				}
				wm := metas[s][c.Rank()]
				gm := rb.Meta(s)
				if len(gm) != len(wm) {
					ok = false
					return
				}
				for i := range wm {
					if gm[i] != wm[i] {
						ok = false
						return
					}
				}
			}
		}
		for _, codec := range []Codec{FP32Wire, FP16Wire} {
			for _, hier := range []bool{false, true} {
				w := NewWorld(p, fuzzTopo(p))
				w.Run(func(c *Comm) {
					sb := NewSendBuf(counts[c.Rank()])
					for d := 0; d < p; d++ {
						sb.Append(d, vals[c.Rank()][d])
						sb.SetMeta(d, metas[c.Rank()][d])
					}
					switch mode % 2 {
					case 0: // blocking
						var rb *RecvBuf
						if hier {
							rb = c.AllToAllvHier(sb, codec)
						} else {
							rb = c.AllToAllvDirect(sb, codec)
						}
						check(c, rb)
						rb.Release()
					default: // two-phase
						ex := c.BeginExchange(hier, codec)
						ex.PostAll(sb)
						ex.Flush()
						local := ex.RecvLocal()
						remote := ex.RecvRemote()
						// Merge views for the check.
						merged := &RecvBuf{
							counts: make([]int, p),
							offs:   make([]int, p),
							meta:   make([][]int, p),
						}
						total := 0
						for _, part := range []*RecvBuf{local, remote} {
							for _, s := range part.Srcs() {
								merged.counts[s] = part.Count(s)
								merged.offs[s] = total
								merged.meta[s] = part.Meta(s)
								total += part.Count(s)
							}
						}
						merged.data = make([]float32, total)
						for _, part := range []*RecvBuf{local, remote} {
							for _, s := range part.Srcs() {
								copy(merged.data[merged.offs[s]:merged.offs[s]+merged.counts[s]], part.Chunk(s))
							}
						}
						check(c, merged)
						local.Release()
						remote.Release()
					}
					sb.Release()
				})
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestPropVirtualTimeMonotone(t *testing.T) {
	// A rank's clock never runs backward across any collective mix.
	f := func(seed uint64) bool {
		p := int(seed%6) + 2
		ok := true
		w := NewWorld(p, fuzzTopo(p))
		w.Run(func(c *Comm) {
			prev := c.Now()
			steps := []func(){
				func() { c.Barrier() },
				func() { c.AllReduce([]float32{1, 2}, OpSum) },
				func() { c.AllGather([]float32{float32(c.Rank())}) },
				func() {
					sb := buildSendBuf(c.Rank(), p, func(int) int { return 1 })
					c.AllToAllv(sb, FP32Wire).Release()
					sb.Release()
				},
			}
			for _, s := range steps {
				s()
				if c.Now() < prev {
					ok = false
				}
				prev = c.Now()
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
