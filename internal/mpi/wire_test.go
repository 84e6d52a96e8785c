package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bagualu/internal/half"
	"bagualu/internal/simnet"
	"bagualu/internal/simnet/coll"
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
		var meta []int
		for k := 0; k < (rank+d)%3; k++ {
			meta = append(meta, rank*100+d*10+k)
		}
		sb.SetMeta(d, meta)
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

// allRanks lists comm ranks 0..p-1.
func allRanks(p int) []int {
	all := make([]int, p)
	for i := range all {
		all[i] = i
	}
	return all
}

// TestAllToAllvAlgorithmsAgree runs the direct, hierarchical and
// auto-selected exchanges on worlds of 1 to 8 ranks, priced by the
// 2x2x2 machine (one to two supernodes) and by no topology at all; every
// rank must receive exactly what each source addressed to it.
func TestAllToAllvAlgorithmsAgree(t *testing.T) {
	counts := func(s, d int) int { return (s*7+d*3)%5 + 1 }
	for _, algo := range []struct {
		name string
		f    func(*Comm, *SendBuf, Codec) *RecvBuf
	}{{"direct", (*Comm).AllToAllvDirect}, {"hier", (*Comm).AllToAllvHier}, {"auto", (*Comm).AllToAllv}} {
		t.Run(algo.name, func(t *testing.T) {
			for _, p := range []int{1, 2, 4, 8} {
				for _, topo := range []*simnet.Topology{nil, wireTestTopo()} {
					w := NewWorld(p, topo)
					w.Run(func(c *Comm) {
						sb := buildSendBuf(c.Rank(), c.Size(), func(d int) int { return counts(c.Rank(), d) })
						rb := algo.f(c, sb, FP32Wire)
						sb.Release()
						checkRecvBuf(t, c.Rank(), rb, counts, allRanks(p))
						rb.Release()
					})
				}
			}
		})
	}
}

// a2aRun is what one all-to-all leaves behind: every rank's received
// sources, chunks and metadata, whether the comm is hierarchical, the
// world clock, and the inter-supernode message count.
type a2aRun struct {
	srcs   [][]int       // [rank]
	chunks [][][]float32 // [rank][src]
	metas  [][][]int     // [rank][src]
	hier   bool
	clock  float64
	msgs   int64
}

// runAllToAll runs f on a fresh world of p ranks, rank r sending
// fill(r), and snapshots what it leaves behind.
func runAllToAll(p int, topo *simnet.Topology, codec Codec, fill func(rank int) *SendBuf, f func(*Comm, *SendBuf, Codec) *RecvBuf) a2aRun {
	out := a2aRun{srcs: make([][]int, p), chunks: make([][][]float32, p), metas: make([][][]int, p)}
	w := NewWorld(p, topo)
	w.Run(func(c *Comm) {
		r := c.Rank()
		if r == 0 {
			out.hier = c.Hierarchical()
		}
		sb := fill(r)
		rb := f(c, sb, codec)
		sb.Release()
		out.srcs[r] = append([]int(nil), rb.Srcs()...)
		out.chunks[r] = make([][]float32, p)
		out.metas[r] = make([][]int, p)
		for _, s := range rb.Srcs() {
			out.chunks[r][s] = append([]float32(nil), rb.Chunk(s)...)
			out.metas[r][s] = append([]int(nil), rb.Meta(s)...)
		}
		rb.Release()
	})
	out.clock = w.MaxTime()
	out.msgs = w.Stats().Snapshot().Msgs[simnet.MachineLevel]
	return out
}

// algorithmsAgree runs the direct, hierarchical and auto-selected
// exchanges on the same input and checks them against each other:
// direct and hierarchical deliver identical buffers, and AllToAllv is
// exactly the exchange Hierarchical selects — same buffers, same clock,
// same inter-supernode messages.
func algorithmsAgree(p int, topo *simnet.Topology, codec Codec, fill func(rank int) *SendBuf) error {
	direct := runAllToAll(p, topo, codec, fill, (*Comm).AllToAllvDirect)
	hier := runAllToAll(p, topo, codec, fill, (*Comm).AllToAllvHier)
	auto := runAllToAll(p, topo, codec, fill, (*Comm).AllToAllv)
	if !reflect.DeepEqual(direct.srcs, hier.srcs) || !reflect.DeepEqual(direct.chunks, hier.chunks) || !reflect.DeepEqual(direct.metas, hier.metas) {
		return fmt.Errorf("direct and hierarchical deliver different buffers")
	}
	chosen := direct
	if auto.hier {
		chosen = hier
	}
	if !reflect.DeepEqual(auto, chosen) {
		return fmt.Errorf("AllToAllv (hierarchical=%v) differs from the exchange it selects: clock %v vs %v, inter-supernode msgs %d vs %d",
			auto.hier, auto.clock, chosen.clock, auto.msgs, chosen.msgs)
	}
	return nil
}

// TestAllToAllAlgorithmsAgree checks the exchanges against each other on
// worlds of 1 to 8 ranks, with and without a topology, in both codecs,
// with some rank pairs exchanging nothing.
func TestAllToAllAlgorithmsAgree(t *testing.T) {
	for _, p := range []int{1, 2, 4, 8} {
		for _, topo := range []*simnet.Topology{nil, wireTestTopo()} {
			for _, codec := range []Codec{FP32Wire, FP16Wire} {
				fill := func(rank int) *SendBuf {
					return buildSendBuf(rank, p, func(d int) int { return (rank + 2*d) % 4 })
				}
				if err := algorithmsAgree(p, topo, codec, fill); err != nil {
					t.Errorf("p=%d topology=%v codec=%v: %v", p, topo != nil, codec, err)
				}
			}
		}
	}
}

// TestAllToAllHierReducesInterSupernodeMessages pins the hierarchical
// exchange at one inter-supernode message per rank and peer supernode —
// each rank receives one rail message from every other supernode —
// against the direct exchange's one per cross-supernode rank pair: 8 vs
// 32 on two supernodes of four ranks, 96 vs 768 on R4's world of four
// supernodes of eight.
func TestAllToAllHierReducesInterSupernodeMessages(t *testing.T) {
	for _, tc := range []struct {
		name         string
		world        func() *World
		hier, direct int64
	}{
		{"2x2x2", func() *World { return NewWorld(8, wireTestTopo()) }, 8, 32},
		{"R4", r8World, 96, 768},
	} {
		msgs := func(f func(*Comm, *SendBuf, Codec) *RecvBuf) int64 {
			w := tc.world()
			w.Run(func(c *Comm) {
				sb := buildSendBuf(c.Rank(), c.Size(), func(int) int { return 16 })
				f(c, sb, FP32Wire).Release()
				sb.Release()
			})
			return w.Stats().Snapshot().Msgs[simnet.MachineLevel]
		}
		if got := msgs((*Comm).AllToAllvHier); got != tc.hier {
			t.Errorf("%s: hierarchical inter-supernode messages %d, want %d", tc.name, got, tc.hier)
		}
		if got := msgs((*Comm).AllToAllvDirect); got != tc.direct {
			t.Errorf("%s: direct inter-supernode messages %d, want %d", tc.name, got, tc.direct)
		}
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
				return w.Stats().Snapshot().Bytes[simnet.MachineLevel]
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
}

// TestWireStatsTracksCodecGap pins the per-comm Raw/Wire split of the
// hierarchical exchange exactly. Raw, the message counts, and FP32's
// Wire are the same under both codecs; under FP16Wire each element
// bound for another supernode saves 2 bytes on every hop it takes — to
// its rail forwarder in the source supernode (node or supernode level)
// unless the source is that forwarder, then the rail message (machine
// level) — and nothing else moves.
func TestWireStatsTracksCodecGap(t *testing.T) {
	counts := func(s, d int) int { return 32 + (3*s+d)%5 }
	run := func(codec Codec) WireStats {
		w := NewWorld(8, wireTestTopo())
		total := make([]WireStats, 8)
		w.Run(func(c *Comm) {
			sb := buildSendBuf(c.Rank(), c.Size(), func(d int) int { return counts(c.Rank(), d) })
			rb := c.AllToAllvHier(sb, codec)
			sb.Release()
			rb.Release()
			total[c.Rank()] = c.WireStats()
		})
		var agg WireStats
		for _, s := range total {
			for l := range agg.Wire {
				agg.Wire[l] += s.Wire[l]
				agg.Raw[l] += s.Raw[l]
				agg.Msgs[l] += s.Msgs[l]
			}
		}
		return agg
	}
	fp32, fp16 := run(FP32Wire), run(FP16Wire)

	// The hops each cross-supernode element rides, from the geometry:
	// four ranks per supernode, so the forwarder of s's rows bound for d
	// sits in s's supernode at d's position.
	topo := wireTestTopo()
	rail := func(s, d int) int { return s - s%4 + d%4 }
	var gap [4]int64
	for s := 0; s < 8; s++ {
		for d := 0; d < 8; d++ {
			if topo.Supernode(s) == topo.Supernode(d) {
				continue
			}
			n := int64(2 * counts(s, d))
			if f := rail(s, d); f != s {
				gap[topo.LevelOf(s, f)] += n
			}
			gap[simnet.MachineLevel] += n
		}
	}
	if fp32.Raw != fp16.Raw || fp32.Msgs != fp16.Msgs || fp32.Wire != fp32.Raw {
		t.Fatalf("codec moved Raw or message counts, or FP32 is not raw: fp32 %+v fp16 %+v", fp32, fp16)
	}
	for l := range gap {
		if got := fp16.Raw[l] - fp16.Wire[l]; got != gap[l] {
			t.Errorf("level %v: fp16 saves %d bytes, want 2 B × %d cross-supernode elements", simnet.Level(l), got, gap[l]/2)
		}
	}
	if gap[simnet.NodeLevel] == 0 || gap[simnet.SupernodeLevel] == 0 {
		t.Fatalf("geometry sends no cross-supernode element over a node or supernode leg: %v", gap)
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
					want = half.FromFloat32(vals[i]).Float32()
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

// TestExchangeRoundsCrossSupernodeOnce is generated: on every machine
// of 2–4 supernodes × 1–2 nodes × 1–3 ranks per node, each rank sends
// random-length chunks (empty ones included) of values spread over
// FP16's range and past it, with random metadata, through the direct
// and hierarchical exchanges, blocking and two-phase, under both codecs.
// Under FP16Wire an element that crossed supernodes must arrive as the
// FP16 round trip of what was sent — rounded once, whatever legs it
// took — and every other element exactly; metadata arrives exactly; and
// the hierarchical exchange delivers the direct one's buffers bit for
// bit.
func TestExchangeRoundsCrossSupernodeOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	type delivery struct {
		bits  [][][]uint32 // [rank][src]
		metas [][][]int
	}
	for sns := 2; sns <= 4; sns++ {
		for nps := 1; nps <= 2; nps++ {
			for rpn := 1; rpn <= 3; rpn++ {
				topo := simnet.New(sunway.TestMachine(sns, nps), rpn)
				p := sns * nps * rpn
				vals := make([][][]float32, p) // [src][dst]
				metas := make([][][]int, p)
				for s := range vals {
					vals[s], metas[s] = make([][]float32, p), make([][]int, p)
					for d := range vals[s] {
						n := 0
						if rng.Intn(4) != 0 {
							n = 1 + rng.Intn(6)
						}
						for range n {
							vals[s][d] = append(vals[s][d], float32(rng.NormFloat64()*math.Ldexp(1, rng.Intn(40)-20)))
						}
						for range rng.Intn(3) {
							metas[s][d] = append(metas[s][d], rng.Intn(1000))
						}
					}
				}
				for _, codec := range []Codec{FP32Wire, FP16Wire} {
					run := func(hier, twoPhase bool) delivery {
						out := delivery{bits: make([][][]uint32, p), metas: make([][][]int, p)}
						NewWorld(p, topo).Run(func(c *Comm) {
							r := c.Rank()
							cs := make([]int, p)
							for d := range cs {
								cs[d] = len(vals[r][d])
							}
							sb := NewSendBuf(cs)
							for d := range cs {
								sb.Append(d, vals[r][d])
								sb.SetMeta(d, metas[r][d])
							}
							var parts []*RecvBuf
							if twoPhase {
								ex := c.BeginExchange(hier, codec)
								ex.PostAll(sb)
								ex.Flush()
								parts = []*RecvBuf{ex.RecvLocal(), ex.RecvRemote()}
							} else {
								parts = []*RecvBuf{c.allToAllv(sb, codec, hier)}
							}
							sb.Release()
							out.bits[r], out.metas[r] = make([][]uint32, p), make([][]int, p)
							for _, rb := range parts {
								for _, s := range rb.Srcs() {
									out.bits[r][s] = []uint32{}
									for _, v := range rb.Chunk(s) {
										out.bits[r][s] = append(out.bits[r][s], math.Float32bits(v))
									}
									out.metas[r][s] = append([]int{}, rb.Meta(s)...)
								}
								rb.Release()
							}
						})
						return out
					}
					var direct delivery
					for _, path := range []struct{ hier, twoPhase bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
						name := fmt.Sprintf("%dsn×%dnode×%d %v hier=%v two-phase=%v", sns, nps, rpn, codec, path.hier, path.twoPhase)
						got := run(path.hier, path.twoPhase)
						for d := 0; d < p; d++ {
							for s := 0; s < p; s++ {
								cross := topo.Supernode(s) != topo.Supernode(d)
								if len(got.bits[d][s]) != len(vals[s][d]) || !reflect.DeepEqual(got.metas[d][s], append([]int{}, metas[s][d]...)) {
									t.Fatalf("%s: rank %d from %d: %d elements, meta %v; sent %d, %v", name, d, s, len(got.bits[d][s]), got.metas[d][s], len(vals[s][d]), metas[s][d])
								}
								for i, v := range vals[s][d] {
									if codec == FP16Wire && cross {
										v = half.FromFloat32(v).Float32()
									}
									if got.bits[d][s][i] != math.Float32bits(v) {
										t.Fatalf("%s: rank %d from %d elem %d: got %v, want %v (cross=%v)", name, d, s, i,
											math.Float32frombits(got.bits[d][s][i]), v, cross)
									}
								}
							}
						}
						if !path.hier {
							direct = got
						} else if !reflect.DeepEqual(got, direct) {
							t.Fatalf("%s: hierarchical delivery differs from direct", name)
						}
					}
				}
			}
		}
	}
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
			meta := make([]int, rows)
			for i := range meta {
				sb.Append(dst, []float32{1, 2, 3, 4})
				meta[i] = i
			}
			sb.SetMeta(dst, meta)
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

// TestHierExchangeMatchesDirectOnAnyShape is generated: worlds of 2–16
// ranks over 2–4 supernodes are Split into sub-communicators holding a
// random subset of the ranks in a random order, so supernode groups are
// unequal, one-member groups included, and interleaved in comm-rank
// order. Every rank sends random-length chunks (empty ones included)
// with random metadata, under both codecs, blocking and two-phase. The
// hierarchical exchange must deliver the direct one's buffers bit for
// bit; each rank must send |own supernode|−1 intra-supernode messages
// and one rail message per cross destination it serves (those at its
// own position modulo |own supernode| in their supernodes); and the
// inter-supernode bytes must be each cross chunk once plus the rail
// messages' framing, so no row crosses a supernode boundary twice.
func TestHierExchangeMatchesDirectOnAnyShape(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	type delivery struct {
		bits  [][][]uint32 // [rank][src]
		metas [][][]int
	}
	var unequal, single int // sampled communicators with unequal, one-member supernode groups
	for trial := 0; trial < 60; trial++ {
		sns, nps, rpn := 2+rng.Intn(3), 1+rng.Intn(2), 1+rng.Intn(2)
		topo := simnet.New(sunway.TestMachine(sns, nps), rpn)
		keys := rng.Perm(sns * nps * rpn)
		var members []int // world ranks in the sub-communicator
		for g := range keys {
			if rng.Intn(3) != 0 {
				members = append(members, g)
			}
		}
		p := len(members)
		if p < 2 {
			continue
		}
		size := map[int]int{} // members per supernode
		for _, g := range members {
			size[topo.Supernode(g)]++
		}
		if len(size) > 1 {
			lo, hi := p, 0
			for _, n := range size {
				lo, hi = min(lo, n), max(hi, n)
			}
			if lo != hi {
				unequal++
			}
			if lo == 1 {
				single++
			}
		}
		vals := make([][][]float32, p) // [src][dst], comm ranks
		metas := make([][][]int, p)
		for s := range vals {
			vals[s], metas[s] = make([][]float32, p), make([][]int, p)
			for d := range vals[s] {
				for range rng.Intn(3) * rng.Intn(4) {
					vals[s][d] = append(vals[s][d], float32(rng.NormFloat64()*math.Ldexp(1, rng.Intn(30)-15)))
				}
				for range rng.Intn(3) {
					metas[s][d] = append(metas[s][d], rng.Intn(1000))
				}
			}
		}
		for _, codec := range []Codec{FP32Wire, FP16Wire} {
			run := func(hier, twoPhase bool) delivery {
				out := delivery{bits: make([][][]uint32, p), metas: make([][][]int, p)}
				name := fmt.Sprintf("trial %d (%dsn×%dnode×%d, members %v) %v hier=%v two-phase=%v", trial, sns, nps, rpn, members, codec, hier, twoPhase)
				NewWorld(sns*nps*rpn, topo).Run(func(w *Comm) {
					color := -1
					if slices.Contains(members, w.Rank()) {
						color = 0
					}
					c := w.Split(color, keys[w.Rank()])
					if c == nil {
						return
					}
					r := c.Rank()
					cs := make([]int, p)
					for d := range cs {
						cs[d] = len(vals[r][d])
					}
					sb := NewSendBuf(cs)
					for d := range cs {
						sb.Append(d, vals[r][d])
						sb.SetMeta(d, metas[r][d])
					}
					var parts []*RecvBuf
					if twoPhase {
						ex := c.BeginExchange(hier, codec)
						ex.PostAll(sb)
						ex.Flush()
						parts = []*RecvBuf{ex.RecvLocal(), ex.RecvRemote()}
					} else {
						parts = []*RecvBuf{c.allToAllv(sb, codec, hier)}
					}
					sb.Release()
					out.bits[r], out.metas[r] = make([][]uint32, p), make([][]int, p)
					for _, rb := range parts {
						for _, s := range rb.Srcs() {
							out.bits[r][s] = []uint32{}
							for _, v := range rb.Chunk(s) {
								out.bits[r][s] = append(out.bits[r][s], math.Float32bits(v))
							}
							out.metas[r][s] = append([]int{}, rb.Meta(s)...)
						}
						rb.Release()
					}
					if !hier {
						return
					}
					// Messages and inter-supernode bytes, from the geometry.
					groups, of := c.Supernodes()
					own := groups[of[r]]
					pos := func(q int) int { return slices.Index(groups[of[q]], q) }
					served := 0
					var crossRaw int64
					for q := 0; q < p; q++ {
						if of[q] != of[r] && pos(q)%len(own) == pos(r) {
							served++
							crossRaw += int64(8 * (1 + 3*len(own)))
							for _, s := range own {
								crossRaw += int64(4*len(vals[s][q]) + 8*len(metas[s][q]))
							}
						}
					}
					ws := c.WireStats()
					intra := ws.Msgs[simnet.NodeLevel] + ws.Msgs[simnet.SupernodeLevel]
					if intra != int64(len(own)-1) || ws.Msgs[simnet.MachineLevel] != int64(served) {
						t.Errorf("%s: rank %d sent %d intra- and %d inter-supernode messages, want %d and %d",
							name, r, intra, ws.Msgs[simnet.MachineLevel], len(own)-1, served)
					}
					if ws.Raw[simnet.MachineLevel] != crossRaw {
						t.Errorf("%s: rank %d sent %d inter-supernode bytes at FP32 width, want %d: each cross chunk once in its rail message",
							name, r, ws.Raw[simnet.MachineLevel], crossRaw)
					}
				})
				return out
			}
			direct := run(false, false)
			for _, twoPhase := range []bool{false, true} {
				if got := run(true, twoPhase); !reflect.DeepEqual(got, direct) {
					t.Fatalf("trial %d (%dsn×%dnode×%d, members %v) %v two-phase=%v: hierarchical delivery differs from direct",
						trial, sns, nps, rpn, members, codec, twoPhase)
				}
			}
		}
	}
	if unequal == 0 || single == 0 {
		t.Fatalf("sampled %d communicators with unequal supernode groups, %d with a one-member group: want some of each", unequal, single)
	}
	t.Logf("%d communicators with unequal supernode groups, %d with a one-member group", unequal, single)
}

// TestExchangeGuardsPanic: an exchange driven out of its protocol's
// order, or handed a frame that disagrees with its payload, panics with
// a diagnostic rather than sending, receiving or misattributing rows.
// The frames go straight to the block decoder of a one-rank exchange.
func TestExchangeGuardsPanic(t *testing.T) {
	frame := func(k coll.Kind, m message) func(*Exchange) {
		return func(e *Exchange) {
			e.kind = k
			e.blocks(m, 0, func(int, seg) {})
		}
	}
	cases := []struct {
		name, want string
		use        func(e *Exchange)
	}{
		{"PostAfterFlush", "Post after Flush", func(e *Exchange) { e.Flush(); e.Post(0, nil, nil) }},
		{"PostTwice", "Post twice to rank 0", func(e *Exchange) { e.Post(0, nil, nil); e.Post(0, []float32{1}, nil) }},
		{"PostBelowRange", "invalid rank -1", func(e *Exchange) { e.Post(-1, nil, nil) }},
		{"PostAboveRange", "invalid rank 1", func(e *Exchange) { e.Post(1, nil, nil) }},
		{"FlushTwice", "Flush twice", func(e *Exchange) { e.Flush(); e.Flush() }},
		{"RecvLocalBeforeFlush", "RecvLocal before Flush", func(e *Exchange) { e.RecvLocal() }},
		{"RecvLocalTwice", "RecvLocal before Flush or twice", func(e *Exchange) { e.Flush(); e.RecvLocal(); e.RecvLocal() }},
		{"RecvRemoteBeforeRecvLocal", "RecvRemote before RecvLocal", func(e *Exchange) { e.Flush(); e.RecvRemote() }},
		{"RecvAllBeforeFlush", "RecvAll before Flush", func(e *Exchange) { e.RecvAll() }},
		{"RecvAllAfterRecvLocal", "after a Recv", func(e *Exchange) { e.Flush(); e.RecvLocal(); e.RecvAll() }},
		{"DirectShortHeader", "header of 1 ints", frame(coll.Direct, message{ints: []int{0}})},
		{"DirectNegativeCount", "block out of bounds", frame(coll.Direct, message{ints: []int{-1, 0}})},
		{"DirectBlockPastPayload", "block out of bounds", frame(coll.Direct, message{ints: []int{3, 0}, data: []float32{1, 2}})},
		{"DirectMetaPastFrame", "block out of bounds", frame(coll.Direct, message{ints: []int{0, 2, 7}})},
		{"DirectPayloadPastBlock", "payload longer than its blocks", frame(coll.Direct, message{ints: []int{1, 0}, data: []float32{1, 2}})},
		{"RailNegativeBlockCount", "header of 1 ints", frame(coll.Rail, message{ints: []int{-1}})},
		{"RailHeaderPastFrame", "header of 4 ints", frame(coll.Rail, message{ints: []int{2, 0, 0, 0}})},
		{"RailNegativeCount", "block out of bounds", frame(coll.Rail, message{ints: []int{1, 0, -1, 0}})},
		{"RailBlockPastPayload", "block out of bounds", frame(coll.Rail, message{ints: []int{1, 0, 3, 0}, data: []float32{1, 2}})},
		{"RailBlockRankBelowRange", "block of rank -1", frame(coll.Rail, message{ints: []int{1, -1, 0, 0}})},
		{"RailBlockRankAboveRange", "block of rank 1", frame(coll.Rail, message{ints: []int{1, 1, 0, 0}})},
		{"RailPayloadPastBlocks", "payload longer than its blocks", frame(coll.Rail, message{ints: []int{1, 0, 1, 0}, data: []float32{1, 2}})},
		{"RailMetaPastBlocks", "payload longer than its blocks", frame(coll.Rail, message{ints: []int{1, 0, 0, 0, 9}})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewSelf().BeginExchange(false, FP32Wire)
			got := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				tc.use(e)
				return ""
			}()
			if !strings.Contains(got, tc.want) {
				t.Errorf("panic %q, want one naming %q", got, tc.want)
			}
		})
	}
}
