package mpi

import (
	"math"
	"testing"

	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
)

// shardTestData builds a deterministic per-rank vector with varied
// magnitudes so reduction-order differences would show up bitwise.
func shardTestData(rank, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = float32(rank+1)*(float32(i%17)-8.25) + float32(i)*1e-3
	}
	return out
}

func TestShardBoundsPartition(t *testing.T) {
	topos := map[string]*simnet.Topology{
		"flat": nil,
		"hier": simnet.New(sunway.TestMachine(2, 2), 2), // 8 ranks, 2 supernodes
	}
	for name, topo := range topos {
		sizes := []int{1, 2, 3, 5}
		if name == "hier" {
			sizes = []int{8}
		}
		for _, p := range sizes {
			for _, n := range []int{0, 1, 3, 64, 103} {
				w := NewWorld(p, topo)
				w.Run(func(c *Comm) {
					if c.Rank() != 0 {
						return
					}
					shards := c.ShardBounds(n)
					if len(shards) != p {
						t.Errorf("%s p=%d n=%d: %d shards", name, p, n, len(shards))
						return
					}
					covered := make([]int, n)
					for r, s := range shards {
						if s.Lo > s.Hi || s.Lo < 0 || s.Hi > n {
							t.Errorf("%s p=%d n=%d rank %d: bad shard %+v", name, p, n, r, s)
						}
						for i := s.Lo; i < s.Hi; i++ {
							covered[i]++
						}
					}
					for i, ct := range covered {
						if ct != 1 {
							t.Errorf("%s p=%d n=%d: offset %d covered %d times", name, p, n, i, ct)
							return
						}
					}
				})
			}
		}
	}
}

// runShardVsAllReduce checks the core bit-exactness contract on one
// topology: ReduceScatterShard returns exactly the owned slice of the
// AllReduce result, and AllGatherShard reassembles the identical full
// vector on every rank.
func runShardVsAllReduce(t *testing.T, topo *simnet.Topology, p, n int) {
	t.Helper()
	w := NewWorld(p, topo)
	w.Run(func(c *Comm) {
		data := shardTestData(c.Rank(), n)
		want := c.AllReduce(append([]float32(nil), data...), OpSum)
		shard, s := c.ReduceScatterShard(data, GradWire{})
		if len(shard) != s.Len() {
			t.Errorf("rank %d: shard len %d != %d", c.Rank(), len(shard), s.Len())
			return
		}
		if got := c.MyShard(n); got != s {
			t.Errorf("rank %d: MyShard %+v != returned %+v", c.Rank(), got, s)
		}
		for i := s.Lo; i < s.Hi; i++ {
			if math.Float32bits(shard[i-s.Lo]) != math.Float32bits(want[i]) {
				t.Errorf("rank %d: shard[%d] = %v, AllReduce[%d] = %v", c.Rank(), i-s.Lo, shard[i-s.Lo], i, want[i])
				return
			}
		}
		full := c.AllGatherShard(shard, n)
		if len(full) != n {
			t.Errorf("rank %d: AllGatherShard len %d != %d", c.Rank(), len(full), n)
			return
		}
		for i := range full {
			if math.Float32bits(full[i]) != math.Float32bits(want[i]) {
				t.Errorf("rank %d: gathered[%d] = %v, AllReduce = %v", c.Rank(), i, full[i], want[i])
				return
			}
		}
	})
}

func TestReduceScatterShardMatchesAllReduceRing(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4} {
		for _, n := range []int{7, 64, 103} {
			runShardVsAllReduce(t, nil, p, n)
		}
	}
}

func TestReduceScatterShardMatchesAllReduceHier(t *testing.T) {
	topo := simnet.New(sunway.TestMachine(2, 2), 2) // 8 ranks, 2 supernodes
	for _, n := range []int{64, 257, 1023} {
		runShardVsAllReduce(t, topo, 8, n)
	}
	// 4 ranks on 2 supernodes: smallest world that takes the
	// hierarchical path, with 2 members per supernode.
	small := simnet.New(sunway.TestMachine(2, 2), 1)
	for _, n := range []int{31, 100} {
		runShardVsAllReduce(t, small, 4, n)
	}
}

// TestShardedSyncBytesMatchRing pins the byte-parity claim: on a ring
// (single-supernode) communicator, reduce-scatter + all-gather moves
// exactly the same bytes as one all-reduce.
func TestShardedSyncBytesMatchRing(t *testing.T) {
	const p, n = 4, 4096
	total := func(f func(c *Comm, data []float32)) int64 {
		w := NewWorld(p, nil)
		w.Run(func(c *Comm) {
			f(c, shardTestData(c.Rank(), n))
		})
		var sum int64
		for l := simnet.SelfLevel; l <= simnet.MachineLevel; l++ {
			sum += w.Stats().Snapshot().Bytes[l]
		}
		return sum
	}
	allReduce := total(func(c *Comm, data []float32) {
		c.AllReduce(data, OpSum)
	})
	sharded := total(func(c *Comm, data []float32) {
		shard, _ := c.ReduceScatterShard(data, GradWire{})
		c.AllGatherShard(shard, n)
	})
	if sharded != allReduce {
		t.Fatalf("sharded sync moved %d bytes, all-reduce %d", sharded, allReduce)
	}
}

// TestShardedSyncBytesHier pins the hierarchical byte parity: with
// equal supernodes, reduce-scatter + all-gather is the rail schedule cut
// in two, so it moves exactly the all-reduce's messages and bytes at
// every level. The second world is one where R equal sub-slices of a
// leader chunk are not ringBounds(n, S·R): were rail pieces cut that
// way, a re-slice onto ShardBounds would show up as extra messages.
func TestShardedSyncBytesHier(t *testing.T) {
	for _, tc := range []struct{ sns, n int }{{2, 4096}, {3, 4099}} {
		run := func(f func(c *Comm, data []float32)) simnet.Traffic {
			w := NewWorld(4*tc.sns, simnet.New(sunway.TestMachine(tc.sns, 2), 2))
			w.Run(func(c *Comm) {
				f(c, shardTestData(c.Rank(), tc.n))
			})
			return w.Stats().Snapshot()
		}
		allReduce := run(func(c *Comm, data []float32) {
			c.AllReduce(data, OpSum)
		})
		sharded := run(func(c *Comm, data []float32) {
			shard, _ := c.ReduceScatterShard(data, GradWire{})
			c.AllGatherShard(shard, tc.n)
		})
		if sharded != allReduce {
			t.Fatalf("%d supernodes, n=%d: sharded sync traffic %+v != all-reduce %+v", tc.sns, tc.n, sharded, allReduce)
		}
	}
}
