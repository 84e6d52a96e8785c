package parallel

import (
	"fmt"
	"math"
	"testing"

	"bagualu/internal/ckpt"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
	"bagualu/internal/train"
)

// ckptLayout is one point of the generated save/restore matrix.
type ckptLayout struct {
	strat Strategy
	zero  bool
}

func (l ckptLayout) String() string {
	s := fmt.Sprintf("dp%dxep%d", l.strat.DataParallel, l.strat.ExpertParallel)
	if l.strat.PP() > 1 {
		s += fmt.Sprintf("xpp%d", l.strat.PP())
	}
	if l.zero {
		s += "+zero"
	}
	return s
}

// ckptLayouts is the pool the generator draws from: five dp x ep grids,
// pp2 where the world stays within 8 ranks, each with and without ZeRO.
func ckptLayouts() []ckptLayout {
	var out []ckptLayout
	for _, g := range [][2]int{{1, 1}, {2, 1}, {2, 2}, {4, 2}, {8, 1}} {
		for _, pp := range []int{1, 2} {
			if pp*g[0]*g[1] > 8 {
				continue
			}
			for _, zero := range []bool{false, true} {
				s := Strategy{DataParallel: g[0], ExpertParallel: g[1]}
				if pp > 1 {
					s.Pipeline = pp
				}
				out = append(out, ckptLayout{s, zero})
			}
		}
	}
	return out
}

// onLayout builds one engine per rank of l's world and runs fn on it.
func onLayout(t *testing.T, l ckptLayout, prec sunway.Precision, fn func(c *mpi.Comm, e *Engine)) {
	t.Helper()
	mc := pipeModelCfg(4)
	tc := pipeTrainCfg(l.strat.PP())
	tc.Precision = prec
	w := mpi.NewWorld(l.strat.Size(), simnet.New(sunway.TestMachine(2, 4), 1))
	w.Run(func(c *mpi.Comm) {
		e, err := NewEngine(c, l.strat, mc, tinyCorpusCfg(), tc, train.OptimizerFactory(l.zero, 0)(), 11)
		if err != nil {
			t.Error(err)
			panic(err)
		}
		fn(c, e)
	})
}

func stateBytes(params []*nn.Param) int64 {
	var b int64
	for _, p := range params {
		b += 4 * int64(len(p.W.Data))
	}
	return b
}

// saveBoth trains l for two steps (so moments and masters are no longer
// their initial values) and commits the same state twice: deduplicated
// through Engine.CheckpointShard, and as the reference with every rank
// writing its whole CheckpointParams.
func saveBoth(t *testing.T, l ckptLayout, prec sunway.Precision, dedupDir, refDir string) {
	t.Helper()
	onLayout(t, l, prec, func(c *mpi.Comm, e *Engine) {
		for e.Trainer.StepCount() < 2 {
			e.Step()
		}
		lay := ckpt.Layout{WorldSize: c.Size(), DataParallel: l.strat.DataParallel,
			ExpertParallel: l.strat.ExpertParallel, Pipeline: l.strat.Pipeline}
		for dir, params := range map[string][]*nn.Param{dedupDir: e.CheckpointShard(), refDir: e.Trainer.CheckpointParams()} {
			wr := ckpt.NewWriter(ckpt.Config{Dir: dir}, c)
			if err := wr.Save(2, e.Trainer.CheckpointHeader(), params, lay); err != nil {
				t.Error(err)
				panic(err)
			}
		}
	})
}

// TestDedupCheckpointCrossLayout is the generated restore matrix: every
// layout of the pool restores a checkpoint written under a different,
// seed-drawn layout. Restoring the deduplicated shards must yield
// bit-for-bit the weights, moments and masters that restoring the
// undeduplicated reference yields, and a rank must read no more than
// its own state (+5% for record CRCs and the header) whatever the size
// of the world that wrote or reads the checkpoint. The deduplicated
// shards together must hold the logical state once (+5%).
func TestDedupCheckpointCrossLayout(t *testing.T) {
	layouts := ckptLayouts()
	rng := tensor.NewRNG(16)
	type saved struct{ dedup, ref string }
	saves := map[string]saved{}
	for _, dst := range layouts {
		src := dst
		for src == dst {
			src = layouts[rng.Intn(len(layouts))]
		}
		// A flat pair draws Mixed half the time, so FP32 masters ride
		// along; a pair with a pipelined side runs under FP32 and Mixed
		// both. Only flat pairs draw, so the drawn pairs are the ones
		// drawn before pipelines took Mixed.
		precs := []sunway.Precision{sunway.FP32, sunway.Mixed}
		if src.strat.PP() == 1 && dst.strat.PP() == 1 {
			precs = precs[:1]
			if rng.Intn(2) == 0 {
				precs[0] = sunway.Mixed
			}
		}
		for _, prec := range precs {
			key := fmt.Sprintf("%v/%v", src, prec)
			sv, ok := saves[key]
			if !ok {
				sv = saved{t.TempDir(), t.TempDir()}
				saveBoth(t, src, prec, sv.dedup, sv.ref)
				checkStoredOnce(t, sv.dedup, sv.ref)
				saves[key] = sv
			}
			t.Run(fmt.Sprintf("%v_to_%v_%v", src, dst, prec), func(t *testing.T) {
				logical, biggest := logicalBytes(t, sv.dedup, 2)
				read := make([]int64, dst.strat.Size())
				onLayout(t, dst, prec, func(c *mpi.Comm, e *Engine) {
					params := e.Trainer.CheckpointParams()
					restoreBits := func(restore func() (int64, error)) ([][]uint32, int64) {
						for _, p := range params {
							for i := range p.W.Data {
								p.W.Data[i] = float32(math.NaN()) // restore must overwrite everything
							}
						}
						n, err := restore()
						if err != nil {
							t.Error(err)
							panic(err)
						}
						bits := make([][]uint32, len(params))
						for k, p := range params {
							bits[k] = make([]uint32, len(p.W.Data))
							for i, v := range p.W.Data {
								bits[k][i] = math.Float32bits(v)
							}
						}
						return bits, n
					}
					full := func(dir string) func() (int64, error) {
						return func() (int64, error) {
							res, err := ckpt.Restore(dir, 2, c.Rank(), params)
							return res.BytesRead, err
						}
					}
					want, _ := restoreBits(full(sv.ref))
					got, fullRead := restoreBits(full(sv.dedup))
					// The engine's own restore: each rank reads its slice, the
					// replica groups all-gather the rest.
					viaGroup, sliceRead := restoreBits(func() (int64, error) {
						return e.Restore(sv.dedup, 2, nil, func(int64) float64 { return 0 })
					})
					for k, p := range params {
						for i := range want[k] {
							if got[k][i] != want[k][i] || viaGroup[k][i] != want[k][i] {
								t.Errorf("rank %d: %s[%d] = %08x from deduplicated shards, %08x through Engine.Restore, %08x from the reference",
									c.Rank(), p.Name, i, got[k][i], viaGroup[k][i], want[k][i])
								return
							}
						}
					}
					// A view that starts or ends inside a saved record reads that
					// record whole (its CRC covers all of it). A ZeRO reader has
					// four moment ranges (m and v, dense and expert group), two
					// boundaries each; a slice of a group's concat has two per
					// group.
					limit := 1.05 * float64(stateBytes(params))
					if dst.zero {
						limit += 8 * float64(biggest)
					}
					if float64(fullRead) > limit {
						t.Errorf("rank %d of %v read %d bytes to restore %d bytes of state (limit %.0f)",
							c.Rank(), dst, fullRead, stateBytes(params), limit)
					}
					read[c.Rank()] = sliceRead
					slice := stateBytes(e.CheckpointShard())
					if limit := 1.05*float64(slice) + boundarySlack(dst, biggest); float64(sliceRead) > limit {
						t.Errorf("rank %d of %v: Engine.Restore read %d bytes for its %d-byte slice (limit %.0f)",
							c.Rank(), dst, sliceRead, slice, limit)
					}
				})
				// Each logical byte leaves the disk once, whatever the size of
				// the world that reads it back.
				var sum int64
				for _, n := range read {
					sum += n
				}
				if limit := 1.05*float64(logical) + float64(len(read))*boundarySlack(dst, biggest); float64(sum) > limit {
					t.Errorf("%v: Engine.Restore read %d bytes over the world for %d bytes of logical state (limit %.0f)",
						dst, sum, logical, limit)
				}
			})
		}
	}
}

// boundarySlack is the most one rank's Engine.Restore may read beyond
// its own slice: one whole record at either end of each of its flat
// ranges — the slice of the dense and of the expert group's concat, and
// under ZeRO the four moment ranges as well.
func boundarySlack(l ckptLayout, biggestRecord int64) float64 {
	ranges := 2
	if l.zero {
		ranges += 4
	}
	return float64(2*ranges) * float64(biggestRecord)
}

// logicalBytes returns the payload bytes of every (tensor, element) the
// checkpoint of step under dir holds, counted once, and of its largest
// record.
func logicalBytes(t *testing.T, dir string, step int64) (logical, biggest int64) {
	t.Helper()
	m, err := ckpt.ReadManifest(dir, step)
	if err != nil {
		t.Fatal(err)
	}
	full := map[string]int{}
	for _, r := range m.Index {
		full[r.Name] = r.Full
		biggest = max(biggest, 4*int64(r.Hi-r.Lo))
	}
	for _, n := range full {
		logical += 4 * int64(n)
	}
	return logical, biggest
}

// checkStoredOnce asserts the deduplicated checkpoint's payload bytes
// are within 5% of the logical state: every (tensor, element) the
// reference holds, counted once.
func checkStoredOnce(t *testing.T, dedupDir, refDir string) {
	t.Helper()
	stored := func(dir string) (n int64) {
		m, err := ckpt.ReadManifest(dir, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range m.Index {
			n += 4 * int64(r.Hi-r.Lo)
		}
		return n
	}
	logical, _ := logicalBytes(t, refDir, 2)
	dedup := stored(dedupDir)
	if float64(dedup) > 1.05*float64(logical) {
		t.Errorf("deduplicated shards hold %d payload bytes for %d bytes of logical state (reference: %d)", dedup, logical, stored(refDir))
	}
	if dedup < logical {
		t.Errorf("deduplicated shards hold %d payload bytes, fewer than the %d of logical state", dedup, logical)
	}
}
