package main

import (
	"fmt"

	"bagualu/internal/metrics"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/simnet"
)

// evenSendBuf stages elems zeros for each of ranks destinations.
func evenSendBuf(ranks, elems int) *mpi.SendBuf {
	counts := make([]int, ranks)
	for d := range counts {
		counts[d] = elems
	}
	sb := mpi.NewSendBuf(counts)
	row := make([]float32, elems)
	for d := 0; d < ranks; d++ {
		sb.Append(d, row)
	}
	return sb
}

// a2aRun times one FP32 all-to-allv of elems floats per pair and counts
// the inter-supernode messages it sent.
func a2aRun(ranks int, topo *simnet.Topology, elems int, f func(*mpi.Comm, *mpi.SendBuf, mpi.Codec) *mpi.RecvBuf) (float64, int64) {
	w := onWorld(ranks, topo, func(c *mpi.Comm) {
		sb := evenSendBuf(ranks, elems)
		f(c, sb, mpi.FP32Wire).Release()
		sb.Release()
	})
	return w.MaxTime(), w.Stats().Snapshot().Msgs[simnet.MachineLevel]
}

// expR4 and expR8, the collective micro-benchmarks, sweep the per-rank
// payload from 1 KiB to -max-kb in ×4 steps on 32 ranks over 4
// supernodes.
func expR4(o *options) []*metrics.Table {
	m := o.machine
	ranks, topo := m.ranks, m.topo()

	// R4: the two exchanges MoE dispatch runs (moe.Direct and
	// moe.Hierarchical) across message sizes.
	a2a := metrics.NewTable("R4: all-to-all virtual time (s) by algorithm",
		"bytes/rank", "direct", "hierarchical", "interSN-msgs-direct", "interSN-msgs-hier")
	for kb := 1; kb <= o.maxKB; kb *= 4 {
		elems := max(kb*1024/4/ranks, 1)
		td, md := a2aRun(ranks, topo, elems, (*mpi.Comm).AllToAllvDirect)
		th, mh := a2aRun(ranks, topo, elems, (*mpi.Comm).AllToAllvHier)
		a2a.AddRow(kb*1024, td, th, md, mh)
	}

	// R4c: the flattened MoE dispatch exchange — FP16 wire codec and
	// two-phase comm/compute overlap. Each rank sends equal chunks to
	// every peer through the hierarchical wire path and, in overlap
	// mode, runs a synthetic expert-compute window between the local
	// and remote receive legs so cross-supernode flight time hides.
	cfg := moe.CommConfig{Codec: mpi.FP16Wire, Overlap: true}
	wt := metrics.NewTable(fmt.Sprintf("R4c: flattened exchange (%s)", cfg),
		"bytes/rank", "time-fp32-blocking", "time", "interSN-bytes-fp32", "interSN-bytes", "saved%")
	for kb := 1; kb <= o.maxKB; kb *= 4 {
		elems := max(kb*1024/4/ranks, 1)
		// The compute window an MoE layer would fill with local-expert
		// GEMMs (100 FLOPs per element at 1 GFLOP/s), charged in both
		// modes (after the exchange when blocking, between the receive
		// legs when overlapped) so the time columns differ only by
		// hidden flight time.
		window := 100 * float64(elems) / 1e9
		run := func(codec mpi.Codec, over bool) (float64, int64) {
			w := onWorld(ranks, topo, func(c *mpi.Comm) {
				sb := evenSendBuf(ranks, elems)
				var local, remote *mpi.RecvBuf
				if over {
					ex := c.BeginExchange(true, codec)
					ex.PostAll(sb)
					ex.Flush()
					local = ex.RecvLocal()
					c.Compute(window, metrics.PhaseCompute)
					remote = ex.RecvRemote()
				} else {
					local = c.AllToAllvHier(sb, codec)
					c.Compute(window, metrics.PhaseCompute)
				}
				local.Release()
				if remote != nil {
					remote.Release()
				}
				sb.Release()
			})
			return w.MaxTime(), w.Stats().Snapshot().Bytes[simnet.MachineLevel]
		}
		base, baseBytes := run(mpi.FP32Wire, false)
		tc, cBytes := run(cfg.Codec, cfg.Overlap)
		saved := 0.0
		if baseBytes > 0 {
			saved = 100 * (1 - float64(cBytes)/float64(baseBytes))
		}
		wt.AddRow(kb*1024, base, tc, baseBytes, cBytes, saved)
	}

	// R4b: all-to-all scaling with rank count at fixed payload.
	sc := metrics.NewTable("R4b: all-to-all time vs ranks (64 KiB/rank)",
		"ranks", "direct", "hierarchical", "speedup")
	for p := 8; p <= ranks; p *= 2 {
		_, tp2 := topoFor(p, m.perSN, m.rpn)
		elems := max(64*1024/4/p, 1)
		tdi, _ := a2aRun(p, tp2, elems, (*mpi.Comm).AllToAllvDirect)
		thi, _ := a2aRun(p, tp2, elems, (*mpi.Comm).AllToAllvHier)
		sc.AddRow(p, tdi, thi, tdi/thi)
	}
	return []*metrics.Table{a2a, wt, sc}
}

// expR8: all-reduce algorithms across sizes.
func expR8(o *options) []*metrics.Table {
	m := o.machine
	topo := m.topo()
	ar := metrics.NewTable("R8: all-reduce virtual time (s) by algorithm",
		"bytes", "ring", "hierarchical", "interSN-bytes-ring", "interSN-bytes-hier")
	for kb := 1; kb <= o.maxKB; kb *= 4 {
		run := func(f func(c *mpi.Comm, d []float32) []float32) (float64, int64) {
			w := onWorld(m.ranks, topo, func(c *mpi.Comm) { f(c, make([]float32, kb*1024/4)) })
			return w.MaxTime(), w.Stats().Snapshot().Bytes[simnet.MachineLevel]
		}
		tr, br := run(func(c *mpi.Comm, d []float32) []float32 { return c.AllReduceRing(d, mpi.OpSum) })
		th, bh := run(func(c *mpi.Comm, d []float32) []float32 { return c.AllReduceHier(d, mpi.OpSum) })
		ar.AddRow(kb*1024, tr, th, br, bh)
	}
	return []*metrics.Table{ar}
}
