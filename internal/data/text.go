package data

import (
	"fmt"

	"bagualu/internal/tensor"
)

// TextCorpus serves byte-level language-modeling batches from real
// text, so the library trains on user data as well as the synthetic
// generator. Tokens are raw bytes (vocab 256); sequences are sampled
// at random offsets from the underlying buffer.
type TextCorpus struct {
	text   []byte
	seqLen int
	rng    *tensor.RNG
	cfg    CorpusConfig
}

// ByteVocab is the vocabulary size of byte-level text corpora.
const ByteVocab = 256

// NewTextCorpusFromBytes wraps an in-memory buffer.
func NewTextCorpusFromBytes(text []byte, seqLen int, seed uint64) (*TextCorpus, error) {
	if seqLen < 1 {
		return nil, fmt.Errorf("data: seq len %d", seqLen)
	}
	if len(text) < seqLen+2 {
		return nil, fmt.Errorf("data: text of %d bytes is too short for seq len %d", len(text), seqLen)
	}
	return &TextCorpus{
		text:   text,
		seqLen: seqLen,
		rng:    tensor.NewRNG(seed),
		cfg:    CorpusConfig{Vocab: ByteVocab, SeqLen: seqLen, Seed: seed},
	}, nil
}

// Config reports the equivalent corpus configuration (byte vocab).
func (c *TextCorpus) Config() CorpusConfig { return c.cfg }

// Len returns the underlying text size in bytes.
func (c *TextCorpus) Len() int { return len(c.text) }

// Batch returns b random windows: ids and next-byte targets, each of
// length b*seqLen.
func (c *TextCorpus) Batch(b int) (ids, targets []int) {
	ids = make([]int, 0, b*c.seqLen)
	targets = make([]int, 0, b*c.seqLen)
	for i := 0; i < b; i++ {
		start := c.rng.Intn(len(c.text) - c.seqLen - 1)
		for j := 0; j < c.seqLen; j++ {
			ids = append(ids, int(c.text[start+j]))
			targets = append(targets, int(c.text[start+j+1]))
		}
	}
	return ids, targets
}

// Decode renders byte token ids back to a string (non-printable bytes
// pass through untouched).
func Decode(ids []int) string {
	out := make([]byte, len(ids))
	for i, id := range ids {
		out[i] = byte(id)
	}
	return string(out)
}

// Encode converts a string to byte token ids.
func Encode(s string) []int {
	out := make([]int, len(s))
	for i := range s {
		out[i] = int(s[i])
	}
	return out
}
