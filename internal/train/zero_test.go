package train

import (
	"math"
	"testing"

	"bagualu/internal/ckpt"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/tensor"
)

// zeroTestParams builds a deterministic parameter set with varied
// shapes (total 7+12+5 = 24 elements, deliberately not divisible by
// the rank counts under test).
func zeroTestParams(seed float32) []*nn.Param {
	shapes := [][]int{{7}, {3, 4}, {5}}
	names := []string{"a", "b", "c"}
	var out []*nn.Param
	k := 0
	for i, sh := range shapes {
		p := nn.NewParam(names[i], tensor.New(sh...))
		for j := range p.W.Data {
			p.W.Data[j] = seed * float32(math.Sin(float64(k)*0.7+0.1))
			k++
		}
		out = append(out, p)
	}
	return out
}

// setGrads fills gradients deterministically as a function of rank and
// step so reduced values vary across steps.
func setGrads(params []*nn.Param, rank, step int) {
	k := 0
	for _, p := range params {
		for j := range p.G.Data {
			p.G.Data[j] = float32(math.Cos(float64(k)*0.3+float64(step))) * (1 + 0.1*float32(rank))
			k++
		}
	}
}

// TestShardedAdamBitExact runs the full sharded schedule
// (reduce-scatter → shard update → all-gather) against a reference
// unsharded Adam fed the same all-reduced gradients, at world sizes
// 1, 2, and 4, and requires bitwise-identical weights after several
// steps.
func TestShardedAdamBitExact(t *testing.T) {
	const steps = 5
	for _, p := range []int{1, 2, 4} {
		// Reference: every rank runs the unsharded Adam on grads
		// reduced by the same AllReduce collective the legacy engine
		// path uses (reduction order — and so rounding — matches the
		// sharded reduce-scatter by construction).
		want := unshardedReference(p, steps)

		final := make([][]float32, p) // per-rank flat weights
		w := mpi.NewWorld(p, nil)
		w.Run(func(c *mpi.Comm) {
			params := zeroTestParams(0.5)
			z := NewShardedAdam(0.01)
			z.Bind(ShardGroup{Comm: c, Params: params})
			for s := 0; s < steps; s++ {
				setGrads(params, c.Rank(), s)
				z.StartSync(0, 1/float32(p), mpi.GradWire{}).Wait()
				z.Step(nil, 0.01)
			}
			var flat []float32
			for _, q := range params {
				flat = append(flat, q.W.Data...)
			}
			final[c.Rank()] = flat
		})
		for r := 0; r < p; r++ {
			for i := range want {
				if math.Float32bits(final[r][i]) != math.Float32bits(want[i]) {
					t.Fatalf("p=%d rank %d: w[%d] = %v, unsharded %v", p, r, i, final[r][i], want[i])
				}
			}
		}
	}
}

// unshardedReference runs `steps` unsharded Adam steps on a p-rank
// world using AllReduce gradient sync (the legacy engine schedule) and
// returns the final flat weights, along with a per-step capture
// channel for the moment tests.
func unshardedReference(p, steps int) []float32 {
	var want []float32
	w := mpi.NewWorld(p, nil)
	w.Run(func(c *mpi.Comm) {
		params := zeroTestParams(0.5)
		opt := NewAdam(0.01)
		for s := 0; s < steps; s++ {
			setGrads(params, c.Rank(), s)
			var flat []float32
			for _, q := range params {
				flat = append(flat, q.G.Data...)
			}
			red := c.AllReduce(flat, mpi.OpSum)
			k := 0
			for _, q := range params {
				for j := range q.G.Data {
					q.G.Data[j] = red[k] * (1 / float32(p))
					k++
				}
			}
			opt.Step(params, 0.01)
		}
		if c.Rank() == 0 {
			for _, q := range params {
				want = append(want, q.W.Data...)
			}
		}
	})
	return want
}

// TestShardedNormSqMatchesExchange pins the canonical-norm contract:
// the local rank-ordered partial sum over fully reduced grads equals
// the value the sharded optimizer computes by exchanging partials.
func TestShardedNormSqMatchesExchange(t *testing.T) {
	const p = 4
	w := mpi.NewWorld(p, nil)
	w.Run(func(c *mpi.Comm) {
		params := zeroTestParams(1)
		setGrads(params, c.Rank(), 3)
		z := NewShardedAdam(0)
		z.Bind(ShardGroup{Comm: c, Params: params})
		z.StartSync(0, 1, mpi.GradWire{}).Wait()

		// Reference: all-reduce the grads in place, then the local
		// canonical sum.
		var flat []float32
		for _, q := range params {
			flat = append(flat, q.G.Data...)
		}
		red := c.AllReduce(flat, mpi.OpSum)
		k := 0
		for _, q := range params {
			copy(q.G.Data, red[k:k+len(q.G.Data)])
			k += len(q.G.Data)
		}
		want := ShardedNormSq(c, params)
		got := z.NormSq(c)
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Errorf("rank %d: ShardedNormSq %v != NormSq %v", c.Rank(), want, got)
		}
	})
}

// TestShardedCheckpointCrossLayout proves v3 range records restore in
// both directions: sharded moment views reassemble into a full-tensor
// optimizer, and a full-tensor checkpoint restores into shard views.
func TestShardedCheckpointCrossLayout(t *testing.T) {
	const p = 4
	// Run a few sharded steps, then checkpoint each rank's
	// CheckpointParams-style state views as one shard of a step.
	shardedDir := t.TempDir()
	var wantM, wantV []float32 // full reference moments via unsharded Adam
	{
		wr := mpi.NewWorld(p, nil)
		wr.Run(func(c *mpi.Comm) {
			ref := zeroTestParams(0.5)
			refOpt := NewAdam(0)
			for s := 0; s < 3; s++ {
				setGrads(ref, c.Rank(), s)
				var flat []float32
				for _, q := range ref {
					flat = append(flat, q.G.Data...)
				}
				red := c.AllReduce(flat, mpi.OpSum)
				k := 0
				for _, q := range ref {
					for j := range q.G.Data {
						q.G.Data[j] = red[k] * (1 / float32(p))
						k++
					}
				}
				refOpt.Step(ref, 0.01)
			}
			if c.Rank() != 0 {
				return
			}
			for _, sp := range refOpt.StateTensors(ref) {
				if sp.Name[len(sp.Name)-1] == 'm' {
					wantM = append(wantM, sp.W.Data...)
				} else {
					wantV = append(wantV, sp.W.Data...)
				}
			}
		})
	}
	w := mpi.NewWorld(p, nil)
	w.Run(func(c *mpi.Comm) {
		params := zeroTestParams(0.5)
		z := NewShardedAdam(0)
		z.Bind(ShardGroup{Comm: c, Params: params})
		for s := 0; s < 3; s++ {
			setGrads(params, c.Rank(), s)
			z.StartSync(0, 1/float32(p), mpi.GradWire{}).Wait()
			z.Step(nil, 0.01)
		}
		all := append(append([]*nn.Param(nil), params...), z.StateTensors(params)...)
		wr := ckpt.NewWriter(ckpt.Config{Dir: shardedDir}, c)
		if err := wr.Save(3, ckpt.Header{Step: 3, OptSteps: 3}, all, ckpt.Layout{WorldSize: p, DataParallel: p, ExpertParallel: 1}); err != nil {
			t.Errorf("rank %d: save: %v", c.Rank(), err)
		}
	})

	// Direction 1: assemble all shards' ranges into an unsharded Adam
	// (Restore fails unless every element of every view is covered).
	params := zeroTestParams(0)
	full := NewAdam(0)
	all := append(append([]*nn.Param(nil), params...), full.StateTensors(params)...)
	if _, err := ckpt.Restore(shardedDir, 3, 0, all); err != nil {
		t.Fatal(err)
	}
	var gotM, gotV []float32
	for _, sp := range full.StateTensors(params) {
		if sp.Name[len(sp.Name)-1] == 'm' {
			gotM = append(gotM, sp.W.Data...)
		} else {
			gotV = append(gotV, sp.W.Data...)
		}
	}
	for i := range wantM {
		if math.Float32bits(gotM[i]) != math.Float32bits(wantM[i]) ||
			math.Float32bits(gotV[i]) != math.Float32bits(wantV[i]) {
			t.Fatalf("moment[%d]: got (%v,%v) want (%v,%v)", i, gotM[i], gotV[i], wantM[i], wantV[i])
		}
	}

	// Direction 2: save the unsharded optimizer and restore it into a
	// different shard layout (2 ranks instead of 4).
	fullDir := t.TempDir()
	if err := ckpt.Save(fullDir, 3, ckpt.Header{Step: 3, OptSteps: 3}, all); err != nil {
		t.Fatal(err)
	}
	w2 := mpi.NewWorld(2, nil)
	w2.Run(func(c *mpi.Comm) {
		params2 := zeroTestParams(0)
		z := NewShardedAdam(0)
		z.Bind(ShardGroup{Comm: c, Params: params2})
		views := append(append([]*nn.Param(nil), params2...), z.StateTensors(params2)...)
		if _, err := ckpt.Restore(fullDir, 3, c.Rank(), views); err != nil {
			t.Errorf("rank %d: %v", c.Rank(), err)
			return
		}
		// Spot-check: every restored moment-shard element matches the
		// unsharded reference at its flat offset.
		for _, sp := range z.StateTensors(nil) {
			want := wantM
			if sp.Name[len(sp.Name)-1] == 'v' {
				want = wantV
			}
			base := flatBase(params2, sp.Name)
			for i, v := range sp.W.Data {
				off := base + sp.ShardLo + i
				if math.Float32bits(v) != math.Float32bits(want[off]) {
					t.Errorf("rank %d: %s[%d] = %v, want %v", c.Rank(), sp.Name, i, v, want[off])
					return
				}
			}
		}
	})
}

// flatBase returns the flat offset of the named state tensor's parent
// param in the concatenation order of params.
func flatBase(params []*nn.Param, stateName string) int {
	off := 0
	for _, p := range params {
		if stateName == p.Name+".adam.m" || stateName == p.Name+".adam.v" {
			return off
		}
		off += len(p.W.Data)
	}
	panic("unknown state tensor " + stateName)
}
