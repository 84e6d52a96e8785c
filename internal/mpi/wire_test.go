package mpi

import (
	"fmt"
	"math/rand"
	"testing"

	"bagualu/internal/half"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
)

// wireTestTopo spans 2 supernodes × 2 nodes × 2 ranks = 8 ranks, so
// every hierarchy level carries traffic.
func wireTestTopo() *simnet.Topology {
	return simnet.New(sunway.TestMachine(2, 2), 2)
}

// buildSendBuf fills a SendBuf with deterministic per-pair payloads:
// rank r sends (r*31+d) rows of width w to rank d... simplified to a
// count table, values encoding (src, dst, index) so misrouting is
// detectable.
func buildSendBuf(rank, p int, counts func(d int) int) *SendBuf {
	cs := make([]int, p)
	for d := 0; d < p; d++ {
		cs[d] = counts(d)
	}
	sb := NewSendBuf(cs)
	for d := 0; d < p; d++ {
		row := make([]float32, cs[d])
		for i := range row {
			row[i] = float32(rank*1000 + d*100 + i)
		}
		sb.Append(d, row)
		for k := 0; k < (rank+d)%3; k++ {
			sb.AppendMeta(d, rank*100+d*10+k)
		}
	}
	return sb
}

func checkRecvBuf(t *testing.T, rank int, rb *RecvBuf, counts func(s, d int) int, wantSrcs []int) {
	t.Helper()
	if len(rb.Srcs()) != len(wantSrcs) {
		t.Fatalf("rank %d: got %d srcs, want %d", rank, len(rb.Srcs()), len(wantSrcs))
	}
	for _, s := range wantSrcs {
		n := counts(s, rank)
		chunk := rb.Chunk(s)
		if len(chunk) != n {
			t.Fatalf("rank %d: chunk from %d has %d elems, want %d", rank, s, len(chunk), n)
		}
		for i, v := range chunk {
			want := float32(s*1000 + rank*100 + i)
			if v != want {
				t.Fatalf("rank %d: chunk[%d] from %d = %v, want %v", rank, i, s, v, want)
			}
		}
		meta := rb.Meta(s)
		if len(meta) != (s+rank)%3 {
			t.Fatalf("rank %d: meta from %d has %d ints, want %d", rank, s, len(meta), (s+rank)%3)
		}
		for k, v := range meta {
			if v != s*100+rank*10+k {
				t.Fatalf("rank %d: meta[%d] from %d = %d", rank, k, s, v)
			}
		}
	}
}

func TestAllToAllvAlgorithmsAgree(t *testing.T) {
	counts := func(s, d int) int { return (s*7+d*3)%5 + 1 }
	for _, algo := range []string{"direct", "hier"} {
		t.Run(algo, func(t *testing.T) {
			w := NewWorld(8, wireTestTopo())
			w.Run(func(c *Comm) {
				sb := buildSendBuf(c.Rank(), c.Size(), func(d int) int { return counts(c.Rank(), d) })
				var rb *RecvBuf
				switch algo {
				case "direct":
					rb = c.AllToAllvDirect(sb, FP32Wire)
				case "hier":
					rb = c.AllToAllvHier(sb, FP32Wire)
				}
				sb.Release()
				all := make([]int, c.Size())
				for i := range all {
					all[i] = i
				}
				checkRecvBuf(t, c.Rank(), rb, counts, all)
				rb.Release()
			})
		})
	}
}

// TestExchangeOverlapPhases checks the two-phase receive: RecvLocal
// returns exactly the same-supernode sources, RecvRemote the rest,
// and together they cover what RecvAll would.
func TestExchangeOverlapPhases(t *testing.T) {
	counts := func(s, d int) int { return (s+d)%4 + 1 }
	for _, hier := range []bool{false, true} {
		t.Run(fmt.Sprintf("hier=%v", hier), func(t *testing.T) {
			w := NewWorld(8, wireTestTopo())
			w.Run(func(c *Comm) {
				sb := buildSendBuf(c.Rank(), c.Size(), func(d int) int { return counts(c.Rank(), d) })
				ex := c.BeginExchange(hier, FP32Wire)
				ex.PostAll(sb)
				ex.Flush()
				sb.Release()

				local := ex.RecvLocal()
				remote := ex.RecvRemote()

				topo := c.Topology()
				mySN := topo.Supernode(c.Global(c.Rank()))
				var wantLocal, wantRemote []int
				for s := 0; s < c.Size(); s++ {
					if topo.Supernode(c.Global(s)) == mySN {
						wantLocal = append(wantLocal, s)
					} else {
						wantRemote = append(wantRemote, s)
					}
				}
				checkRecvBuf(t, c.Rank(), local, counts, wantLocal)
				checkRecvBuf(t, c.Rank(), remote, counts, wantRemote)
				local.Release()
				remote.Release()
			})
		})
	}
}

// TestFP16WireHalvesInterSupernodeBytes is the satellite assertion:
// with the FP16 codec, post-codec bytes on inter-supernode links drop
// by at least 45% versus the FP32 wire for the same exchange.
func TestFP16WireHalvesInterSupernodeBytes(t *testing.T) {
	// Payload-dominated chunks, as in real MoE dispatch (hundreds of
	// floats per token row); tiny chunks would let the uncompressed
	// framing header mask the codec's saving.
	counts := func(s, d int) int { return 256 }
	run := func(codec Codec, hier bool) WireStats {
		var stats WireStats
		w := NewWorld(8, wireTestTopo())
		w.Run(func(c *Comm) {
			sb := buildSendBuf(c.Rank(), c.Size(), func(d int) int { return counts(c.Rank(), d) })
			before := c.WireStats()
			var rb *RecvBuf
			if hier {
				rb = c.AllToAllvHier(sb, codec)
			} else {
				rb = c.AllToAllvDirect(sb, codec)
			}
			sb.Release()
			rb.Release()
			if c.Rank() == 0 {
				stats = c.WireStats().Sub(before)
			}
		})
		// Sum over all ranks instead: WireStats is per-comm/per-rank, so
		// rank 0 alone under-reports hier (leaders carry the X-leg).
		return stats
	}
	for _, hier := range []bool{false, true} {
		t.Run(fmt.Sprintf("hier=%v", hier), func(t *testing.T) {
			// Use the world-level counters, which see every rank.
			inter := func(codec Codec) int64 {
				w := NewWorld(8, wireTestTopo())
				w.Run(func(c *Comm) {
					sb := buildSendBuf(c.Rank(), c.Size(), func(d int) int { return counts(c.Rank(), d) })
					var rb *RecvBuf
					if hier {
						rb = c.AllToAllvHier(sb, codec)
					} else {
						rb = c.AllToAllvDirect(sb, codec)
					}
					sb.Release()
					rb.Release()
				})
				return w.Stats().BytesAt(simnet.MachineLevel)
			}
			fp32 := inter(FP32Wire)
			fp16 := inter(FP16Wire)
			if fp32 == 0 {
				t.Fatal("no inter-supernode traffic in baseline")
			}
			red := 1 - float64(fp16)/float64(fp32)
			t.Logf("hier=%v: inter-supernode bytes fp32=%d fp16=%d (-%.1f%%)", hier, fp32, fp16, 100*red)
			if red < 0.45 {
				t.Fatalf("FP16 codec reduced inter-supernode bytes by only %.1f%%, want >=45%%", 100*red)
			}
		})
	}
	_ = run // WireStats variant exercised in TestWireStatsTracksCodecGap
}

// TestWireStatsTracksCodecGap checks the per-comm Raw/Wire split: at
// machine level Raw-Wire equals the codec saving, and intra-level
// traffic is untouched by the codec.
func TestWireStatsTracksCodecGap(t *testing.T) {
	w := NewWorld(8, wireTestTopo())
	total := make([]WireStats, 8)
	w.Run(func(c *Comm) {
		sb := buildSendBuf(c.Rank(), c.Size(), func(d int) int { return 32 })
		rb := c.AllToAllvHier(sb, FP16Wire)
		sb.Release()
		rb.Release()
		total[c.Rank()] = c.WireStats()
	})
	var agg WireStats
	for _, s := range total {
		agg.Add(s)
	}
	if agg.Wire[simnet.MachineLevel] >= agg.Raw[simnet.MachineLevel] {
		t.Fatalf("fp16 wire bytes %d not below raw %d at machine level",
			agg.Wire[simnet.MachineLevel], agg.Raw[simnet.MachineLevel])
	}
	for _, l := range []simnet.Level{simnet.NodeLevel, simnet.SupernodeLevel} {
		if agg.Wire[l] != agg.Raw[l] {
			t.Fatalf("codec altered level %v: wire %d != raw %d", l, agg.Wire[l], agg.Raw[l])
		}
	}
	if agg.InterBytes() == 0 || agg.IntraBytes() == 0 {
		t.Fatalf("expected traffic at both tiers: inter=%d intra=%d", agg.InterBytes(), agg.IntraBytes())
	}
}

// TestFP16WireValuesRoundTrip checks the received values equal the
// canonical FP16 round-trip of what was sent (quantized exactly once).
func TestFP16WireValuesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]float32, 48)
	for i := range vals {
		vals[i] = float32(rng.NormFloat64())
	}
	w := NewWorld(8, wireTestTopo())
	w.Run(func(c *Comm) {
		p := c.Size()
		cs := make([]int, p)
		for d := range cs {
			cs[d] = len(vals)
		}
		sb := NewSendBuf(cs)
		for d := 0; d < p; d++ {
			sb.Append(d, vals)
		}
		rb := c.AllToAllvHier(sb, FP16Wire)
		sb.Release()
		topo := c.Topology()
		for s := 0; s < p; s++ {
			cross := topo.Supernode(c.Global(s)) != topo.Supernode(c.Global(c.Rank()))
			for i, v := range rb.Chunk(s) {
				want := vals[i]
				if cross {
					want = half.RoundTrip32(vals[i])
				}
				if v != want {
					t.Errorf("rank %d src %d elem %d: got %v want %v (cross=%v)", c.Rank(), s, i, v, want, cross)
					return
				}
			}
		}
		rb.Release()
	})
}

// TestRecvBufRows pins the variable-length framing assert the
// dropless MoE dispatch relies on: a payload that is a whole number
// of d-wide rows with one metadata slot per row passes and returns
// the exact row count; a non-multiple width or a meta/row mismatch
// panics instead of silently misattributing rows to experts.
func TestRecvBufRows(t *testing.T) {
	const d = 4
	w := NewWorld(2, wireTestTopo())
	w.Run(func(c *Comm) {
		rows := c.Rank() + 1 // rank 0 sends 1 row, rank 1 sends 2
		cs := make([]int, c.Size())
		for dst := range cs {
			cs[dst] = rows * d
		}
		sb := NewSendBuf(cs)
		for dst := range cs {
			for i := 0; i < rows; i++ {
				sb.Append(dst, []float32{1, 2, 3, 4})
				sb.AppendMeta(dst, i)
			}
		}
		rb := c.AllToAllvDirect(sb, FP32Wire)
		sb.Release()
		for _, src := range rb.Srcs() {
			if got, want := rb.Rows(src, d), src+1; got != want {
				t.Errorf("rank %d: Rows(%d) = %d, want %d", c.Rank(), src, got, want)
			}
			// Width that does not divide the payload must panic.
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("rank %d: non-multiple row width accepted", c.Rank())
					}
				}()
				rb.Rows(src, d-1)
			}()
		}
		rb.Release()
	})
}
