// Package ckpt implements sharded, layout-aware distributed
// checkpointing for the simulated training stack. Every rank writes
// its own shard — BaGuaLu's 174T-parameter checkpoints only work
// because no single node ever sees the whole model — and a manifest
// records the parallel layout plus an index of every tensor record, so
// a *different* layout can restore: each rank resolves the tensors its
// new placement assigns it against the index and reads exactly those
// records, from whichever shards hold them.
//
// This is the only package that knows checkpoint bytes: codec.go holds
// the shard format, Restore is the only reader, and a single-file
// checkpoint is simply a one-shard step (Save).
//
// Who writes what — and who reads what — is the caller's choice of
// parameter list. The engine passes parallel.Engine.CheckpointShard: a
// tensor replicated over R ranks is written as R range records, one
// slice per replica, so the shards together hold each logical byte
// once, and parallel.Engine.Restore reads the same slices back and lets
// the replica group all-gather the rest, so each byte leaves the disk
// once as well. A single rank restoring on its own asks for its whole
// state. A caller that passes a replicated tensor whole from every rank
// (the writer does not know what is replicated) gets R identical
// records; a restore then reads one of them, rotating the choice by
// rank.
//
// Commit protocol: each shard is written to a temp file and renamed;
// the manifest is written (also temp+rename) only after the LAST
// shard of the step has landed. The manifest rename is therefore the
// single commit point — a crash anywhere mid-checkpoint leaves the
// previous committed checkpoint untouched and the new step invisible
// to Latest. A rank that dies mid-checkpoint simply means its step's
// manifest never appears. After the rename the committer removes every
// file of the step directory the manifest does not list: shards and
// temp files a larger, since-shrunk world left behind when it tried the
// same step.
package ckpt

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"bagualu/internal/nn"
)

// Layout records the parallel configuration a checkpoint was written
// under. Restore does not *need* it to reassemble tensors (matching
// is by name), but tools and sanity checks do, and it documents what
// the shard count means.
type Layout struct {
	WorldSize      int `json:"world_size"`
	DataParallel   int `json:"data_parallel"`
	ExpertParallel int `json:"expert_parallel"`
	Pipeline       int `json:"pipeline,omitempty"` // pipeline stages (0/absent = flat grid)
	Virtual        int `json:"virtual,omitempty"`  // virtual stages per pipeline stage
}

// Manifest is the commit record of one sharded checkpoint.
type Manifest struct {
	Step   int64    `json:"step"`
	Shards int      `json:"shards"`
	Layout Layout   `json:"layout"`
	Files  []string `json:"files"` // shard file names in rank order
	// Index lists every tensor record of every shard, in file order.
	// Restore reads records through it and never scans a shard.
	Index []Record `json:"index"`
}

// Record locates one range record: elements [Lo, Hi) of the logical
// tensor Name (Full elements long) sit in Files[File], the payload
// starting at byte Offset and followed by its CRC32.
type Record struct {
	Name   string `json:"name"`
	Full   int    `json:"full"`
	Lo     int    `json:"lo"`
	Hi     int    `json:"hi"`
	File   int    `json:"file"`
	Offset int64  `json:"offset"`
}

// NoIndexError rejects a manifest that carries no record index — one
// written before restores became indexed reads. There is no scanning
// fallback; such a checkpoint has to be re-saved.
type NoIndexError struct {
	Dir  string
	Step int64
}

func (e *NoIndexError) Error() string {
	return fmt.Sprintf("ckpt: manifest of step %d in %s has no record index (written by an older build); re-save the checkpoint", e.Step, e.Dir)
}

const manifestName = "MANIFEST.json"

// StepDir returns the directory one checkpoint step lives in.
func StepDir(dir string, step int64) string {
	return filepath.Join(dir, fmt.Sprintf("step-%08d", step))
}

// ShardFile returns the file name of one rank's shard.
func ShardFile(rank int) string {
	return fmt.Sprintf("shard-%04d.bin", rank)
}

// Latest returns the highest step under dir with a committed
// manifest, or -1 if none exists.
func Latest(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return -1, nil
		}
		return -1, err
	}
	best := int64(-1)
	for _, e := range ents {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "step-") {
			continue
		}
		step, err := strconv.ParseInt(strings.TrimPrefix(e.Name(), "step-"), 10, 64)
		if err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, e.Name(), manifestName)); err != nil {
			continue // uncommitted (crashed mid-checkpoint)
		}
		if step > best {
			best = step
		}
	}
	return best, nil
}

// ReadManifest loads the commit record of one step.
func ReadManifest(dir string, step int64) (Manifest, error) {
	var m Manifest
	raw, err := os.ReadFile(filepath.Join(StepDir(dir, step), manifestName))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return m, fmt.Errorf("ckpt: bad manifest for step %d: %w", step, err)
	}
	return m, nil
}

// writeManifest commits a step: temp file + rename, the single
// atomic commit point of the whole sharded checkpoint. It then prunes
// the step directory down to the manifest and the files it lists.
func writeManifest(dir string, m Manifest) error {
	sd := StepDir(dir, m.Step)
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(sd, manifestName+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(raw); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(sd, manifestName)); err != nil {
		return err
	}
	ents, err := os.ReadDir(sd)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if n := e.Name(); n != manifestName && !slices.Contains(m.Files, n) {
			if err := os.Remove(filepath.Join(sd, n)); err != nil {
				return err
			}
		}
	}
	return nil
}

// RestoreResult reports what a Restore read.
type RestoreResult struct {
	Header    Header
	BytesRead int64 // shard bytes actually read (drives recovery-time pricing)
	Shards    int
}

// shardFile is what Restore needs of an open shard.
type shardFile interface {
	io.ReaderAt
	io.Closer
}

// shardReader reads a step's shard files by index position, opening
// each on first use and counting every byte requested.
type shardReader struct {
	dir   string
	names []string
	open  func(path string) (shardFile, error)
	files map[int]shardFile
	bytes int64
}

// file returns shard i as a ReaderAt that adds to the byte count.
func (s *shardReader) file(i int) (io.ReaderAt, error) {
	if i < 0 || i >= len(s.names) {
		return nil, fmt.Errorf("ckpt: index names shard %d of %d", i, len(s.names))
	}
	f := s.files[i]
	if f == nil {
		var err error
		if f, err = s.open(filepath.Join(s.dir, s.names[i])); err != nil {
			return nil, fmt.Errorf("ckpt: committed checkpoint missing shard: %w", err)
		}
		s.files[i] = f
	}
	return countingReaderAt{f, &s.bytes}, nil
}

func (s *shardReader) close() {
	for _, f := range s.files {
		f.Close()
	}
}

type countingReaderAt struct {
	r io.ReaderAt
	n *int64
}

func (c countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	*c.n += int64(len(p))
	return c.r.ReadAt(p, off)
}

// Restore reassembles a rank's state from a committed checkpoint,
// possibly written under a different layout. params is the set of
// views this rank wants filled under its NEW layout (weights, optimizer
// state, masters — all of its state, or the slices of it that
// parallel.Engine.Restore asks for). Each view is resolved against the
// manifest's index and only the records overlapping it are read, one
// ReadAt per record, so expert state finds its new owner no matter
// which dead or re-ranked node wrote it and a rank reads about as many
// bytes as it restores — not the world's. When several records cover
// the same elements (replicas saved whole), one is read, chosen by shard
// so concurrent restorers spread over the files. The returned header is
// adopted from shard (shard mod Shards). Its step, loss scale and
// optimizer step count are identical across the shards of a consistent
// checkpoint; its RNG position is not — it is that shard's own data
// stream, one per data-parallel index — so the shard a caller passes also
// names the stream it resumes (parallel.Engine.Restore passes the rank's
// new index, as a fresh world restarted from the checkpoint would).
//
// An error is returned if any part of a requested view is in no record,
// or a record that was read fails its CRC (*CorruptError, naming
// the tensor). Records nobody asks for are not read, so damage to them
// goes unnoticed by this restore.
func Restore(dir string, step int64, shard int, params []*nn.Param) (RestoreResult, error) {
	m, err := ReadManifest(dir, step)
	if err != nil {
		return RestoreResult{}, err
	}
	return restore(dir, m, shard, params, openShard)
}

func openShard(path string) (shardFile, error) { return os.Open(path) }

// restore is Restore over a manifest already read, opening shards
// through open.
func restore(dir string, m Manifest, shard int, params []*nn.Param, open func(string) (shardFile, error)) (res RestoreResult, err error) {
	step := m.Step
	if len(m.Index) == 0 {
		return res, &NoIndexError{Dir: dir, Step: step}
	}
	if m.Shards < 1 || len(m.Files) != m.Shards {
		return res, fmt.Errorf("ckpt: manifest of step %d lists %d files for %d shards", step, len(m.Files), m.Shards)
	}
	res.Shards = m.Shards
	src := &shardReader{dir: StepDir(dir, step), names: m.Files, open: open, files: map[int]shardFile{}}
	defer src.close()
	defer func() { res.BytesRead = src.bytes }()

	adopt := ((shard % m.Shards) + m.Shards) % m.Shards
	f, err := src.file(adopt)
	if err != nil {
		return res, err
	}
	prologue := make([]byte, headerSize)
	if _, err := f.ReadAt(prologue, 0); err != nil {
		return res, fmt.Errorf("ckpt: shard %s: %w", m.Files[adopt], err)
	}
	if res.Header, err = decodeHeader(prologue); err != nil {
		return res, fmt.Errorf("ckpt: shard %s: %w", m.Files[adopt], err)
	}

	byName := make(map[string][]Record, len(params))
	for _, r := range m.Index {
		byName[r.Name] = append(byName[r.Name], r)
	}
	var covering []Record
	for _, p := range params {
		vLo, vHi := p.ShardLo, p.ShardLo+p.W.Len()
		// Walk the view left to right; at each point take the record that
		// reaches furthest, and among equals (replicas) the shard-th.
		for at := vLo; at < vHi; {
			covering = covering[:0]
			for _, r := range byName[p.Name] {
				if r.Lo > at || at >= r.Hi {
					continue
				}
				if len(covering) > 0 && r.Hi > covering[0].Hi {
					covering = covering[:0]
				}
				if len(covering) == 0 || r.Hi == covering[0].Hi {
					covering = append(covering, r)
				}
			}
			if len(covering) == 0 {
				return res, fmt.Errorf("ckpt: tensor %q range [%d,%d) not covered by any shard of step %d",
					p.Name, p.ShardLo, p.ShardLo+p.W.Len(), step)
			}
			r := covering[adopt%len(covering)]
			if r.Full != p.FullLen() || r.Lo < 0 || r.Hi > r.Full {
				return res, fmt.Errorf("ckpt: checkpoint tensor %q has range [%d,%d) of %d elements, param has %d",
					p.Name, r.Lo, r.Hi, r.Full, p.FullLen())
			}
			f, err := src.file(r.File)
			if err != nil {
				return res, err
			}
			// A record inside the view decodes straight into the param;
			// one that sticks out is read whole (the CRC covers all of
			// it) and its overlap copied.
			dst := p.W.Data[max(r.Lo, vLo)-vLo : min(r.Hi, vHi)-vLo]
			whole := dst
			if len(dst) != r.Hi-r.Lo {
				whole = make([]float32, r.Hi-r.Lo)
			}
			if err := readPayload(f, r.Offset, p.Name, whole); err != nil {
				return res, fmt.Errorf("ckpt: shard %s: %w", m.Files[r.File], err)
			}
			if len(dst) != len(whole) {
				copy(dst, whole[max(r.Lo, vLo)-r.Lo:])
			}
			at = r.Hi
		}
	}
	return res, nil
}
