package ckpt

import (
	"fmt"

	"bagualu/internal/nn"
)

// SaveForInference writes a weights-only one-shard checkpoint of params
// at step — the seed checkpoint a serving fleet restores crashed
// replicas from.
func SaveForInference(dir string, step int64, params []*nn.Param) error {
	return Save(dir, step, Header{Step: step, LossScale: 1}, params)
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
func LoadForInference(dir string, params []*nn.Param) (Manifest, Header, error) {
	step, err := Latest(dir)
	if err != nil {
		return Manifest{}, Header{}, err
	}
	if step < 0 {
		return Manifest{}, Header{}, fmt.Errorf("ckpt: no committed checkpoint in %s", dir)
	}
	man, err := ReadManifest(dir, step)
	if err != nil {
		return Manifest{}, Header{}, err
	}
	res, err := restore(dir, man, 0, params, openShard)
	if err != nil {
		return Manifest{}, Header{}, err
	}
	return man, res.Header, nil
}
