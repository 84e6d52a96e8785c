package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync/atomic"
	"testing"

	"bagualu/internal/metrics"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
)

// rankParams builds a rank's tensor set under a given layout: a dense
// tensor replicated everywhere plus the experts a block placement
// assigns this rank. Values are a function of the name so any shard
// mixup is visible.
func rankParams(rank, ranks, experts int) []*nn.Param {
	fill := func(name string, n int) *nn.Param {
		t := tensor.New(n)
		h := uint32(2166136261)
		for _, c := range []byte(name) {
			h = (h ^ uint32(c)) * 16777619
		}
		for i := range t.Data {
			t.Data[i] = float32(h%1000) + float32(i)
		}
		return &nn.Param{Name: name, W: t}
	}
	out := []*nn.Param{fill("dense.w", 8)}
	per := experts / ranks
	for e := rank * per; e < (rank+1)*per; e++ {
		out = append(out, fill(fmt.Sprintf("expert.%d.w", e), 6))
	}
	return out
}

func saveWorld(t *testing.T, dir string, ranks, experts int, step int64, cfg Config) {
	t.Helper()
	w := mpi.NewWorld(ranks, nil)
	var firstErr atomic.Value
	w.Run(func(c *mpi.Comm) {
		wr := NewWriter(cfg, c)
		params := rankParams(c.Rank(), ranks, experts)
		hdr := Header{Step: step, LossScale: 1024, RNGState: 99}
		if err := wr.Save(step, hdr, params, Layout{WorldSize: ranks, ExpertParallel: ranks, DataParallel: 1}); err != nil {
			firstErr.Store(err)
		}
		if err := wr.WaitIdle(); err != nil {
			firstErr.Store(err)
		}
	})
	if err, ok := firstErr.Load().(error); ok {
		t.Fatal(err)
	}
}

// A checkpoint written by N ranks must restore onto M < N ranks: each
// new rank finds its (re-partitioned) experts by name across the old
// shards, and the adopted header is consistent.
func TestCrossLayoutRestore(t *testing.T) {
	dir := t.TempDir()
	saveWorld(t, dir, 4, 12, 10, Config{Dir: dir})

	latest, err := Latest(dir)
	if err != nil || latest != 10 {
		t.Fatalf("Latest = %d, %v; want 10", latest, err)
	}
	for newRank := 0; newRank < 3; newRank++ {
		params := rankParams(newRank, 3, 12)
		want := make([][]float32, len(params))
		for i, p := range params {
			want[i] = append([]float32(nil), p.W.Data...)
			for j := range p.W.Data {
				p.W.Data[j] = -1 // clobber; restore must repopulate
			}
		}
		res, err := Restore(dir, 10, newRank, params)
		if err != nil {
			t.Fatalf("rank %d: %v", newRank, err)
		}
		if res.Header.Step != 10 || res.Header.LossScale != 1024 || res.Header.RNGState != 99 {
			t.Fatalf("rank %d: header %+v", newRank, res.Header)
		}
		if res.BytesRead == 0 {
			t.Fatal("BytesRead not accounted")
		}
		for i, p := range params {
			for j := range p.W.Data {
				if p.W.Data[j] != want[i][j] {
					t.Fatalf("rank %d: %s[%d] = %v, want %v", newRank, p.Name, j, p.W.Data[j], want[i][j])
				}
			}
		}
	}
}

// A rank dying mid-write (injected stream failure) must leave the
// previous committed checkpoint intact and the new step uncommitted.
func TestCrashMidWriteKeepsPreviousCheckpoint(t *testing.T) {
	dir := t.TempDir()
	saveWorld(t, dir, 2, 4, 5, Config{Dir: dir})

	// Second checkpoint: rank 1's stream dies mid-record.
	w := mpi.NewWorld(2, nil)
	var sawErr atomic.Bool
	w.Run(func(c *mpi.Comm) {
		wr := NewWriter(Config{Dir: dir}, c)
		if c.Rank() == 1 {
			wr.failAfter = 64 // inside the first tensor record
		}
		params := rankParams(c.Rank(), 2, 4)
		err := wr.Save(6, Header{Step: 6}, params, Layout{WorldSize: 2, ExpertParallel: 2, DataParallel: 1})
		if c.Rank() == 1 && err != nil {
			sawErr.Store(true)
		}
		wr.WaitIdle()
	})
	if !sawErr.Load() {
		t.Fatal("injected write failure not surfaced")
	}

	latest, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if latest != 5 {
		t.Fatalf("Latest = %d after crashed checkpoint; want previous step 5", latest)
	}
	// The previous checkpoint must still restore cleanly.
	params := rankParams(0, 2, 4)
	if _, err := Restore(dir, 5, 0, params); err != nil {
		t.Fatalf("previous checkpoint damaged: %v", err)
	}
	// No shard of the aborted step may have committed a manifest.
	if _, err := os.Stat(filepath.Join(StepDir(dir, 6), manifestName)); !os.IsNotExist(err) {
		t.Fatalf("aborted step has a manifest: %v", err)
	}
}

// Async checkpointing must be measurably cheaper per checkpoint on
// the virtual clock than synchronous: the rank pays a memcpy
// snapshot instead of the full disk write.
func TestAsyncCheaperThanSync(t *testing.T) {
	topo := simnet.New(sunway.TestMachine(1, 4), 1)
	run := func(async bool) float64 {
		dir := t.TempDir()
		w := mpi.NewWorld(2, topo)
		w.Run(func(c *mpi.Comm) {
			wr := NewWriter(Config{Dir: dir, DiskBWGiBs: 0.5, Async: async}, c)
			params := rankParams(c.Rank(), 2, 4)
			// Pad to make disk time dominate alpha.
			params = append(params, &nn.Param{Name: "big", W: tensor.New(1 << 16)})
			for step := int64(1); step <= 3; step++ {
				c.Compute(1e-3, metrics.PhaseCompute) // a "training step" between checkpoints
				if err := wr.Save(step, Header{Step: step}, params, Layout{WorldSize: 2}); err != nil {
					t.Error(err)
				}
			}
			if err := wr.WaitIdle(); err != nil {
				t.Error(err)
			}
		})
		return w.MaxTime()
	}
	// Compare checkpoint *overhead* over the pure-compute baseline
	// (3 steps x 1 ms): sync pays the full disk write on the rank's
	// clock, async only the memcpy snapshot.
	const baseline = 3 * 1e-3
	syncOver, asyncOver := run(false)-baseline, run(true)-baseline
	if syncOver <= 0 {
		t.Fatalf("sync checkpoint shows no overhead (%v)", syncOver)
	}
	if asyncOver >= syncOver*0.5 {
		t.Fatalf("async not measurably cheaper: overhead %v vs sync %v virtual seconds", asyncOver, syncOver)
	}
}

// The async flusher must stall the rank when the previous flush is
// still in flight (virtual disk is busy), not queue unboundedly.
func TestAsyncBackpressure(t *testing.T) {
	topo := simnet.New(sunway.TestMachine(1, 4), 1)
	dir := t.TempDir()
	w := mpi.NewWorld(1, topo)
	var flushStall atomic.Value
	w.Run(func(c *mpi.Comm) {
		wr := NewWriter(Config{Dir: dir, DiskBWGiBs: 0.001, Async: true}, c)
		params := []*nn.Param{{Name: "w", W: tensor.New(1 << 18)}}
		// Back-to-back checkpoints with no compute between them: the
		// second must stall on the first's flush.
		wr.Save(1, Header{Step: 1}, params, Layout{WorldSize: 1})
		wr.Save(2, Header{Step: 2}, params, Layout{WorldSize: 1})
		wr.WaitIdle()
		flushStall.Store(c.Phases().Seconds(metrics.PhaseCkptFlush))
	})
	if s, _ := flushStall.Load().(float64); s <= 0 {
		t.Fatalf("no flush stall recorded under a saturated disk (got %v)", flushStall.Load())
	}
}

// countingFile wraps a shard and records every ReadAt length, the
// independent tally RestoreResult.BytesRead is checked against.
type countingFile struct {
	shardFile
	total *atomic.Int64
}

func (c countingFile) ReadAt(p []byte, off int64) (int, error) {
	c.total.Add(int64(len(p)))
	return c.shardFile.ReadAt(p, off)
}

// A restore reads what it restores: BytesRead equals the bytes a
// counting reader saw requested, and stays near the rank's own state
// however many ranks wrote whole replicas of the dense tensor.
func TestRestoreBytesAreBytesRead(t *testing.T) {
	for _, ranks := range []int{2, 4, 8} {
		dir := t.TempDir()
		saveWorld(t, dir, ranks, 8, 3, Config{Dir: dir})
		params := rankParams(1, 2, 8) // dense.w + experts 4..7
		var own int64
		for _, p := range params {
			own += 4 * int64(len(p.W.Data))
		}
		var seen atomic.Int64
		m, err := ReadManifest(dir, 3)
		if err != nil {
			t.Fatal(err)
		}
		res, err := restore(dir, m, 1, params, func(path string) (shardFile, error) {
			f, err := os.Open(path)
			return countingFile{f, &seen}, err
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.BytesRead != seen.Load() {
			t.Fatalf("%d ranks: BytesRead %d, reader saw %d", ranks, res.BytesRead, seen.Load())
		}
		// Header prologue plus one CRC per record on top of the payload.
		if want := own + headerSize + 4*int64(len(params)); res.BytesRead != want {
			t.Fatalf("%d ranks: read %d bytes for %d bytes of state, want %d", ranks, res.BytesRead, own, want)
		}
	}
}

// flipByte damages one byte of a shard file in place.
func flipByte(t *testing.T, path string, off int64) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[off] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// Corruption is detected in what a restore reads and only there: a
// flipped byte in a needed record is a *CorruptError naming the
// tensor; the same damage in a record this rank does not ask for passes
// unnoticed, where the scan-every-shard restore used to fail on it.
func TestRestoreVerifiesOnlyWhatItReads(t *testing.T) {
	dir := t.TempDir()
	saveWorld(t, dir, 2, 4, 1, Config{Dir: dir})
	m, err := ReadManifest(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	find := func(name string, file int) Record {
		for _, r := range m.Index {
			if r.Name == name && r.File == file {
				return r
			}
		}
		t.Fatalf("no record %s in shard %d", name, file)
		return Record{}
	}
	// Rank 0 of 2 owns experts 0 and 1 and reads dense.w from shard 0.
	params := rankParams(0, 2, 4)

	foreign := find("expert.3.w", 1)
	flipByte(t, filepath.Join(StepDir(dir, 1), m.Files[1]), foreign.Offset+2)
	if _, err := Restore(dir, 1, 0, params); err != nil {
		t.Fatalf("damage in a record this rank does not read failed its restore: %v", err)
	}
	// The rank that does need expert 3 sees it.
	var ce *CorruptError
	if _, err := Restore(dir, 1, 1, rankParams(1, 2, 4)); !errors.As(err, &ce) || ce.Tensor != "expert.3.w" {
		t.Fatalf("restore of the damaged tensor: %v; want CorruptError naming expert.3.w", err)
	}

	needed := find("expert.1.w", 0)
	flipByte(t, filepath.Join(StepDir(dir, 1), m.Files[0]), needed.Offset+5)
	if _, err := Restore(dir, 1, 0, params); !errors.As(err, &ce) || ce.Tensor != "expert.1.w" {
		t.Fatalf("restore over a damaged needed record: %v; want CorruptError naming expert.1.w", err)
	}
}

// A manifest without a record index is refused with a typed error:
// there is no scanning fallback to read it through.
func TestRestoreRejectsIndexlessManifest(t *testing.T) {
	dir := t.TempDir()
	saveWorld(t, dir, 2, 4, 1, Config{Dir: dir})
	m, err := ReadManifest(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Index = nil
	if err := writeManifest(dir, m); err != nil {
		t.Fatal(err)
	}
	var ne *NoIndexError
	if _, err := Restore(dir, 1, 0, rankParams(0, 2, 4)); !errors.As(err, &ne) || ne.Step != 1 {
		t.Fatalf("restore of an index-less manifest: %v; want *NoIndexError for step 1", err)
	}
	if _, _, err := LoadForInference(dir, rankParams(0, 2, 4)); !errors.As(err, &ne) {
		t.Fatalf("LoadForInference of an index-less manifest: %v; want *NoIndexError", err)
	}
}

// An 8-rank attempt at a step that never commits (one rank's stream
// dies, another leaves a temp file) and is re-taken by a 6-rank world
// must leave nothing of the larger world behind: the commit prunes the
// step directory to the manifest and the shards it lists.
func TestCommitPrunesUnlistedFiles(t *testing.T) {
	dir := t.TempDir()
	const step = 10
	w := mpi.NewWorld(8, nil)
	w.Run(func(c *mpi.Comm) {
		wr := NewWriter(Config{Dir: dir}, c)
		if c.Rank() == 7 {
			wr.failAfter = 64
		}
		wr.Save(step, Header{Step: step}, rankParams(c.Rank(), 8, 24), Layout{WorldSize: 8})
		wr.WaitIdle()
	})
	sd := StepDir(dir, step)
	if err := os.WriteFile(filepath.Join(sd, ShardFile(7)+".tmp123"), []byte("half a shard"), 0o644); err != nil {
		t.Fatal(err)
	}
	if latest, _ := Latest(dir); latest != -1 {
		t.Fatalf("aborted 8-rank attempt committed: Latest = %d", latest)
	}

	saveWorld(t, dir, 6, 24, step, Config{Dir: dir})
	m, err := ReadManifest(dir, step)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]string{manifestName}, m.Files...)
	ents, err := os.ReadDir(sd)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	sort.Strings(want)
	if !slices.Equal(got, want) {
		t.Fatalf("step directory after the 6-rank commit holds %v, want %v", got, want)
	}
	for r := 0; r < 6; r++ {
		if _, err := Restore(dir, step, r, rankParams(r, 6, 24)); err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}
