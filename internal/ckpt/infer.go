package ckpt

import (
	"fmt"
	"os"

	"bagualu/internal/nn"
	"bagualu/internal/train"
)

// SaveForInference writes a weights-only, single-shard committed
// checkpoint of params at step — the seed checkpoint a serving fleet
// restores crashed replicas from. It reuses the sharded commit
// protocol (shard temp+rename, then manifest temp+rename) so a
// SaveForInference directory is indistinguishable from a 1-rank
// training checkpoint to Restore and LoadForInference.
func SaveForInference(dir string, step int64, params []*nn.Param) error {
	sd := StepDir(dir, step)
	if err := os.MkdirAll(sd, 0o755); err != nil {
		return err
	}
	recs, err := writeShard(sd, 0, train.Header{Step: step, LossScale: 1}, params, 0)
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

// LoadForInference restores model weights from the latest checkpoint
// in dir into params, matching tensors by name across layouts: the
// checkpoint may have been written by any DP×EP training world (one
// shard per rank) while params describe a single inference process
// with its own expert placement. Restore reads whatever records the
// requested tensors resolve to in the manifest's index, so the only
// inference-specific work is picking the step and ignoring the
// training layout entirely. Optimizer moments and FP32 masters in the
// shards are never read; weights missing from the index are an error.
func LoadForInference(dir string, params []*nn.Param) (Manifest, train.Header, error) {
	step, err := Latest(dir)
	if err != nil {
		return Manifest{}, train.Header{}, err
	}
	if step < 0 {
		return Manifest{}, train.Header{}, fmt.Errorf("ckpt: no committed checkpoint in %s", dir)
	}
	man, err := ReadManifest(dir, step)
	if err != nil {
		return Manifest{}, train.Header{}, err
	}
	res, err := restore(dir, man, 0, params, openShard)
	if err != nil {
		return Manifest{}, train.Header{}, err
	}
	return man, res.Header, nil
}
