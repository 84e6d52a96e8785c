package nn

import (
	"math"
	"testing"

	"bagualu/internal/tensor"
)

func inferTestModel(t *testing.T) *GPT {
	t.Helper()
	cfg := GPTConfig{Vocab: 32, Dim: 16, Heads: 4, Layers: 2, SeqLen: 24, FFNHidden: 32}
	r := tensor.NewRNG(7)
	return NewGPT(cfg, r, nil)
}

// inferModelWithHeadDim is inferTestModel with two heads of the given
// width.
func inferModelWithHeadDim(hd int) *GPT {
	cfg := GPTConfig{Vocab: 32, Dim: 2 * hd, Heads: 2, Layers: 2, SeqLen: 24, FFNHidden: 32}
	return NewGPT(cfg, tensor.NewRNG(7), nil)
}

// inferHeadDims are the head widths the bit-exactness tests run at:
// below, at, off and twice one vector of the attention kernels' lanes.
var inferHeadDims = []int{4, 8, 12, 16}

// Decode must produce bitwise the same logits as re-forwarding the
// whole prefix at every step.
func TestKVDecodeBitExactVsReforward(t *testing.T) {
	seq := []int{3, 10, 9, 28, 1, 1, 17, 5, 22, 0, 31, 14}
	for _, hd := range inferHeadDims {
		g := inferModelWithHeadDim(hd)
		cache := g.NewKVCache()
		g.InferStep(seq[:4], []InferRun{{Cache: cache, Rows: 4}})
		for step, tok := range seq[4:] {
			dec := g.InferStep([]int{tok}, []InferRun{{Cache: cache, Rows: 1}}).Row(0)

			ref := g.NewKVCache()
			full := g.InferStep(seq[:4+step+1], []InferRun{{Cache: ref, Rows: 4 + step + 1}})
			want := full.Row(full.Shape[0] - 1)
			for j := range want {
				if math.Float32bits(dec[j]) != math.Float32bits(want[j]) {
					t.Fatalf("hd %d step %d logit %d: decode %v != reforward %v", hd, step, j, dec[j], want[j])
				}
			}
		}
	}
}

// The promoted satellite test: greedy generation through the KV cache
// must equal the full-reforward reference token for token.
func TestGenerateKVMatchesReforwardGreedy(t *testing.T) {
	g := inferTestModel(t)
	prompt := []int{5, 2, 19, 8}
	kv := g.GenerateKV(prompt, 12, 0, nil)
	ref := g.GenerateReforward(prompt, 12, 0, nil)
	if len(kv) != len(ref) {
		t.Fatalf("length mismatch %d vs %d", len(kv), len(ref))
	}
	for i := range kv {
		if kv[i] != ref[i] {
			t.Fatalf("token %d: kv %d != reforward %d (kv=%v ref=%v)", i, kv[i], ref[i], kv, ref)
		}
	}
}

// Temperature sampling through the KV path must also replay
// deterministically under a fixed seed.
func TestGenerateKVSeededReplay(t *testing.T) {
	g := inferTestModel(t)
	prompt := []int{1, 2, 3}
	a := g.GenerateKV(prompt, 10, 0.8, tensor.NewRNG(42))
	b := g.GenerateKV(prompt, 10, 0.8, tensor.NewRNG(42))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a, b)
		}
	}
}

// Continuous-batching correctness: a mixed batch — prefill runs of
// different lengths next to single decode rows over caches of
// different depths — must be bitwise identical to running each
// sequence alone. This is the property that lets the serving engine
// admit requests at any step without perturbing in-flight sequences.
func TestJointBatchDecodeMatchesSeparate(t *testing.T) {
	seqs := [][]int{
		{4, 7, 2, 9, 11},
		{30, 1, 6},
		{8, 8, 21, 0, 3, 17, 29, 5, 12, 2, 19},
		{15},
	}
	next := [][]int{{12, 3}, {13, 31}, {14, 0}, {16, 9}} // two decode steps each
	for _, hd := range inferHeadDims {
		g := inferModelWithHeadDim(hd)
		// Alone: prefill, then two decode steps; keep every last row.
		want := make([][][]float32, len(seqs))
		for i, seq := range seqs {
			c := g.NewKVCache()
			l := g.InferStep(seq, []InferRun{{Cache: c, Rows: len(seq)}})
			want[i] = append(want[i], append([]float32(nil), l.Row(len(seq)-1)...))
			for _, tok := range next[i] {
				l = g.InferStep([]int{tok}, []InferRun{{Cache: c, Rows: 1}})
				want[i] = append(want[i], append([]float32(nil), l.Row(0)...))
			}
		}
		cmp := func(name string, i, step int, got []float32) {
			t.Helper()
			for j, w := range want[i][step] {
				if math.Float32bits(got[j]) != math.Float32bits(w) {
					t.Fatalf("hd %d %s seq %d logit %d: joint %v != separate %v", hd, name, i, j, got[j], w)
				}
			}
		}

		// Joint, staggered: sequences 0 and 1 prefill together; then 2
		// and 3 prefill in the batch that decodes 0 and 1; then all four
		// decode, 0 and 1 a step ahead.
		caches := make([]*KVCache, len(seqs))
		for i := range caches {
			caches[i] = g.NewKVCache()
		}
		l := g.InferStep(append(append([]int(nil), seqs[0]...), seqs[1]...),
			[]InferRun{{Cache: caches[0], Rows: len(seqs[0])}, {Cache: caches[1], Rows: len(seqs[1])}})
		cmp("prefill", 0, 0, l.Row(len(seqs[0])-1))
		cmp("prefill", 1, 0, l.Row(len(seqs[0])+len(seqs[1])-1))

		tokens := []int{next[0][0]}
		tokens = append(tokens, seqs[2]...)
		tokens = append(tokens, next[1][0])
		tokens = append(tokens, seqs[3]...)
		l = g.InferStep(tokens, []InferRun{
			{Cache: caches[0], Rows: 1}, {Cache: caches[2], Rows: len(seqs[2])},
			{Cache: caches[1], Rows: 1}, {Cache: caches[3], Rows: len(seqs[3])}})
		cmp("decode beside prefill", 0, 1, l.Row(0))
		cmp("prefill beside decode", 2, 0, l.Row(len(seqs[2])))
		cmp("decode beside prefill", 1, 1, l.Row(len(seqs[2])+1))
		cmp("prefill beside decode", 3, 0, l.Row(len(seqs[2])+1+len(seqs[3])))

		l = g.InferStep([]int{next[0][1], next[1][1], next[2][0], next[3][0]}, []InferRun{
			{Cache: caches[0], Rows: 1}, {Cache: caches[1], Rows: 1}, {Cache: caches[2], Rows: 1}, {Cache: caches[3], Rows: 1}})
		cmp("decode", 0, 2, l.Row(0))
		cmp("decode", 1, 2, l.Row(1))
		cmp("decode", 2, 1, l.Row(2))
		cmp("decode", 3, 1, l.Row(3))
	}
}

// The cached attention keeps its keys transposed and runs both of its
// reductions through tensor.AxpyN; what it must return is older than
// that layout: per (row, head), scores summed from zero over the head
// dimension in order and scaled, the max/float64-sum softmax, then the
// value rows added in position order, each times its float32 weight.
func TestInferAttentionMatchesScalarLoops(t *testing.T) {
	for _, hd := range inferHeadDims {
		g := inferModelWithHeadDim(hd)
		blk, at := g.Blocks[1], g.Blocks[1].Attn
		d, rows := at.Dim, 13
		x := tensor.Randn(tensor.NewRNG(uint64(hd)), 1, rows, d)
		got := g.inferAttention(blk, 1, x, []InferRun{{Cache: g.NewKVCache(), Rows: rows}})

		q, k, v := InferLinear(at.QProj, x), InferLinear(at.KProj, x), InferLinear(at.VProj, x)
		scale := float32(1 / math.Sqrt(float64(hd)))
		ctx := tensor.New(rows, d)
		for i := 0; i < rows; i++ {
			for h := 0; h < at.Heads; h++ {
				scores := make([]float32, i+1)
				for t := range scores {
					var s float32
					for j := h * hd; j < (h+1)*hd; j++ {
						s += q.Row(i)[j] * k.Row(t)[j]
					}
					scores[t] = s * scale
				}
				m := scores[0]
				for _, s := range scores[1:] {
					if s > m {
						m = s
					}
				}
				var sum float64
				for t, s := range scores {
					ev := math.Exp(float64(s - m))
					scores[t] = float32(ev)
					sum += ev
				}
				inv := float32(1 / sum)
				for t, s := range scores {
					w := s * inv
					for j := h * hd; j < (h+1)*hd; j++ {
						ctx.Row(i)[j] += w * v.Row(t)[j]
					}
				}
			}
		}
		want := InferLinear(at.OProj, ctx)
		for j := range want.Data {
			if math.Float32bits(got.Data[j]) != math.Float32bits(want.Data[j]) {
				t.Fatalf("hd %d element %d: %v != scalar reference %v", hd, j, got.Data[j], want.Data[j])
			}
		}
	}
}

// The inference path and the training forward share weights but not
// kernels; they must still agree to float tolerance.
func TestInferStepCloseToTrainingForward(t *testing.T) {
	g := inferTestModel(t)
	seq := make([]int, g.Cfg.SeqLen)
	for i := range seq {
		seq[i] = (i * 5) % g.Cfg.Vocab
	}
	train := g.Forward(seq)
	cache := g.NewKVCache()
	infer := g.InferStep(seq, []InferRun{{Cache: cache, Rows: len(seq)}})
	if !train.AllClose(infer, 1e-4) {
		t.Fatalf("inference logits diverge from training forward")
	}
}

// A zero-row step is legal (idle ranks participate in collective MoE
// dispatch with empty batches) and must not disturb anything.
func TestInferStepZeroRows(t *testing.T) {
	g := inferTestModel(t)
	if out := g.InferStep(nil, nil); out != nil {
		t.Fatalf("zero-row step returned %v", out)
	}
}
