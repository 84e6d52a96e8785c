package ckpt

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"bagualu/internal/metrics"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/simnet"
	"bagualu/internal/tensor"
)

// Config drives one rank's checkpoint writer.
type Config struct {
	// Dir is the checkpoint root.
	Dir string
	// DiskBWGiBs is the modeled per-rank checkpoint-disk bandwidth in
	// GiB/s (0 means 1). Only virtual time is priced with it; the real
	// file I/O runs at host speed.
	DiskBWGiBs float64
	// Async snapshots parameters at memcpy cost on the virtual clock
	// and flushes in the background; the rank only stalls if the
	// previous flush is still (virtually) in flight. Sync charges the
	// full disk write to the rank's clock.
	Async bool
}

// Timing breaks down fault-tolerance time on the virtual clock, in
// seconds: one rank's cumulative checkpoint and recovery phases, read
// from its phase record by TimingOf.
type Timing struct {
	Snapshot float64 // copying params into pooled buffers (async)
	Flush    float64 // disk write (sync) or stall on a busy disk (async)
	// Recovery is the detour after a failure, from the shrink to the
	// survivors' common restart (the fault-tolerant loop books it; a
	// Writer books only Snapshot and Flush). RecoveryRead and
	// RecoveryGather are sub-totals of it: this rank's disk read of its
	// own slice of the state, and the replica-group all-gathers that
	// rebuild the rest over the interconnect. The remainder is re-forming
	// the grid and waiting for the slowest survivor.
	Recovery       float64
	RecoveryRead   float64
	RecoveryGather float64
}

// TimingOf reads the checkpoint and recovery phases of a rank's record.
func TimingOf(rec *metrics.PhaseMeter) Timing {
	return Timing{
		Snapshot:       rec.Seconds(metrics.PhaseCkptSnapshot),
		Flush:          rec.Seconds(metrics.PhaseCkptFlush),
		Recovery:       rec.Seconds(metrics.PhaseRecovery),
		RecoveryRead:   rec.Seconds(metrics.PhaseRecoveryRead),
		RecoveryGather: rec.Seconds(metrics.PhaseRecoveryGather),
	}
}

// Writer is one rank's end of the sharded checkpoint protocol. Its
// virtual-time charges book metrics.PhaseCkptSnapshot and
// metrics.PhaseCkptFlush on the rank's phase record, so they outlive
// the writer.
type Writer struct {
	cfg  Config
	comm *mpi.Comm
	bw   float64 // modeled disk bytes/second

	diskFree float64 // virtual time the disk finishes the pending flush

	wg sync.WaitGroup
	mu sync.Mutex
	// err records the first shard-write failure (surfaced by WaitIdle
	// and the next Save so a sick disk is not silently ignored).
	err error

	// failAfter, when positive, makes shard writes fail once that many
	// bytes have been emitted: the in-package tests' stand-in for a
	// writer dying mid-stream, between or inside tensor records.
	failAfter int64
}

// NewWriter builds a writer for the rank owning c.
func NewWriter(cfg Config, c *mpi.Comm) *Writer {
	bw := cfg.DiskBWGiBs
	if bw <= 0 {
		bw = 1
	}
	return &Writer{cfg: cfg, comm: c, bw: bw * (1 << 30)}
}

// RestoreSeconds converts a Restore's byte volume to virtual disk
// time under this writer's bandwidth model.
func (w *Writer) RestoreSeconds(bytesRead int64) float64 {
	return float64(bytesRead) / w.bw
}

// setErr records the first failure.
func (w *Writer) setErr(err error) {
	w.mu.Lock()
	if w.err == nil {
		w.err = err
	}
	w.mu.Unlock()
}

// Err returns the first recorded shard-write failure.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// WaitIdle blocks until all background flushes this writer started
// have finished and returns the first failure, if any.
func (w *Writer) WaitIdle() error {
	w.wg.Wait()
	return w.Err()
}

// Save writes this rank's shard of a step checkpoint and participates
// in the commit protocol (the last shard to land writes the
// manifest). In async mode the disk write happens in the background
// and Save returns after the virtual-cost accounting; call WaitIdle
// before reading the checkpoint back or ending the run.
func (w *Writer) Save(step int64, hdr Header, params []*nn.Param, layout Layout) error {
	if err := w.Err(); err != nil {
		return err
	}
	rank, shards := w.comm.Rank(), w.comm.Size()
	sd := StepDir(w.cfg.Dir, step)
	if err := os.MkdirAll(sd, 0o755); err != nil {
		return err
	}
	var bytes int64
	for _, p := range params {
		bytes += 4 * int64(len(p.W.Data))
	}
	pend := getCoord(w.cfg.Dir, step, shards, layout)

	if !w.cfg.Async {
		w.comm.Compute(float64(bytes)/w.bw, metrics.PhaseCkptFlush)
		recs, err := writeShard(sd, rank, hdr, params, w.failAfter)
		if err != nil {
			pend.abort()
			w.setErr(err)
			return err
		}
		return pend.shardDone(rank, recs)
	}

	// Async: pay memcpy for the snapshot, stall only if the previous
	// flush still owns the (virtual) disk, then hand off to the
	// background flusher.
	topo := w.comm.Topology()
	snap := topo.Alpha[simnet.SelfLevel] + float64(bytes)*topo.Beta[simnet.SelfLevel]
	w.comm.Compute(snap, metrics.PhaseCkptSnapshot)
	if now := w.comm.Now(); now < w.diskFree {
		w.comm.Compute(w.diskFree-now, metrics.PhaseCkptFlush)
	}
	w.diskFree = w.comm.Now() + float64(bytes)/w.bw

	snapParams := make([]*nn.Param, len(params))
	for i, p := range params {
		cp := tensor.GetSlice(len(p.W.Data))
		copy(cp, p.W.Data)
		snapParams[i] = &nn.Param{
			Name: p.Name,
			W:    &tensor.Tensor{Data: cp, Shape: append([]int(nil), p.W.Shape...)},
			// Shard-view identity must survive the snapshot: a ZeRO
			// moment view serializes as a range record of its logical
			// tensor.
			FullShape: append([]int(nil), p.FullShape...),
			ShardLo:   p.ShardLo,
		}
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		recs, err := writeShard(sd, rank, hdr, snapParams, w.failAfter)
		for _, p := range snapParams {
			tensor.PutSlice(p.W.Data)
		}
		if err != nil {
			pend.abort()
			w.setErr(err)
			return
		}
		if err := pend.shardDone(rank, recs); err != nil {
			w.setErr(err)
		}
	}()
	return nil
}

// Save writes params as a committed one-shard step under dir, without
// a communicator: the shard lands by temp+rename, then the manifest
// does, exactly as a one-rank Writer would leave them. This is what a
// single-file checkpoint is — Restore and LoadForInference read it like
// any other step.
func Save(dir string, step int64, hdr Header, params []*nn.Param) error {
	sd := StepDir(dir, step)
	if err := os.MkdirAll(sd, 0o755); err != nil {
		return err
	}
	recs, err := writeShard(sd, 0, hdr, params, 0)
	if err != nil {
		return err
	}
	return writeManifest(dir, Manifest{
		Step:   step,
		Shards: 1,
		Layout: Layout{WorldSize: 1, DataParallel: 1, ExpertParallel: 1},
		Files:  []string{ShardFile(0)},
		Index:  recs,
	})
}

// failWriter errors once its byte budget is exhausted (test hook).
type failWriter struct {
	w      io.Writer
	budget int64
}

func (f *failWriter) Write(p []byte) (int, error) {
	if f.budget <= 0 {
		return 0, fmt.Errorf("ckpt: injected write failure")
	}
	if int64(len(p)) > f.budget {
		n, _ := f.w.Write(p[:f.budget])
		f.budget = 0
		return n, fmt.Errorf("ckpt: injected write failure")
	}
	f.budget -= int64(len(p))
	return f.w.Write(p)
}

// writeShard streams one rank's tensors to a temp file, renames it
// into place and returns the index entries of its records.
func writeShard(sd string, rank int, hdr Header, params []*nn.Param, failAfter int64) ([]Record, error) {
	f, err := os.CreateTemp(sd, ShardFile(rank)+".tmp*")
	if err != nil {
		return nil, err
	}
	tmp := f.Name()
	var dst io.Writer = f
	if failAfter > 0 {
		dst = &failWriter{w: f, budget: failAfter}
	}
	offsets, err := encodeShard(dst, hdr, params)
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return nil, err
	}
	if err := os.Rename(tmp, filepath.Join(sd, ShardFile(rank))); err != nil {
		return nil, err
	}
	recs := make([]Record, len(params))
	for i, p := range params {
		recs[i] = Record{Name: p.Name, Full: p.FullLen(), Lo: p.ShardLo, Hi: p.ShardLo + len(p.W.Data), File: rank, Offset: offsets[i]}
	}
	return recs, nil
}

// pendingCommit coordinates the "last shard writes the manifest"
// rule for one (dir, step). It lives in a package-level registry
// because the ranks of a simulated world share the process; a real
// deployment would use a coordination service or rank-0 commit.
type pendingCommit struct {
	dir string

	mu      sync.Mutex
	need    int
	done    int
	aborted bool
	m       Manifest
	recs    [][]Record // per shard, joined in rank order at commit
}

var (
	coordMu sync.Mutex
	coords  = map[string]*pendingCommit{}
)

func coordKey(dir string, step int64) string {
	return fmt.Sprintf("%s\x00%d", dir, step)
}

// getCoord returns the commit coordinator for (dir, step), creating
// it sized to shards. A stale entry (aborted, or from a pre-recovery
// attempt with a different shard count) is replaced: the re-taken
// checkpoint of a shrunk world must commit on its own terms.
func getCoord(dir string, step int64, shards int, layout Layout) *pendingCommit {
	key := coordKey(dir, step)
	coordMu.Lock()
	defer coordMu.Unlock()
	if p := coords[key]; p != nil {
		p.mu.Lock()
		ok := !p.aborted && p.need == shards
		p.mu.Unlock()
		if ok {
			return p
		}
	}
	files := make([]string, shards)
	for i := range files {
		files[i] = ShardFile(i)
	}
	p := &pendingCommit{
		dir:  dir,
		need: shards,
		m:    Manifest{Step: step, Shards: shards, Layout: layout, Files: files},
		recs: make([][]Record, shards),
	}
	coords[key] = p
	return p
}

// shardDone records one landed shard and its index entries; the last
// one commits the manifest and retires the coordinator. The registry
// lock is taken only after releasing p.mu — getCoord acquires them in
// the opposite order, so nesting them here would deadlock.
func (p *pendingCommit) shardDone(rank int, recs []Record) error {
	p.mu.Lock()
	if p.aborted {
		p.mu.Unlock()
		return nil
	}
	p.recs[rank] = recs
	p.done++
	commit := p.done == p.need
	if commit {
		p.m.Index = slices.Concat(p.recs...)
	}
	p.mu.Unlock()
	if !commit {
		return nil
	}
	err := writeManifest(p.dir, p.m)
	coordMu.Lock()
	if coords[coordKey(p.dir, p.m.Step)] == p {
		delete(coords, coordKey(p.dir, p.m.Step))
	}
	coordMu.Unlock()
	return err
}

// abort poisons the commit: the manifest will never be written, so
// the step stays invisible to Latest and the previous checkpoint
// remains the restore point.
func (p *pendingCommit) abort() {
	p.mu.Lock()
	p.aborted = true
	p.mu.Unlock()
}
