// Package data generates the synthetic pretraining corpus used by
// the reproduction. BaGuaLu pretrained a multimodal (text + image
// token) model on a proprietary corpus; what the experiments actually
// depend on is (a) a learnable sequence distribution and (b) a
// controllable skew in token statistics, because skew is what
// stresses MoE gate load balance. This generator provides both:
// sequences follow a noisy affine Markov rule (learnable by a small
// transformer) and token frequencies follow a Zipf law with a
// configurable exponent.
package data

import (
	"fmt"
	"math"

	"bagualu/internal/tensor"
)

// CorpusConfig parameterizes the synthetic corpus.
type CorpusConfig struct {
	Vocab  int
	SeqLen int

	// Zipf is the exponent of the marginal token distribution;
	// 0 = uniform, ~1 = natural-language-like skew. Higher values
	// concentrate probability on few tokens and stress the MoE gate.
	Zipf float64

	// Determinism is the probability that the next token follows the
	// affine Markov rule (the learnable signal); the rest are fresh
	// Zipf draws. 0 yields i.i.d. noise, 1 a fully deterministic
	// sequence.
	Determinism float64

	// ImageFrac reserves the top fraction of the vocabulary as
	// "image tokens": sequences switch between a text segment and an
	// image segment, mimicking the multimodal M6-style inputs.
	ImageFrac float64

	Seed uint64
}

// Validate checks the configuration.
func (c CorpusConfig) Validate() error {
	switch {
	case c.Vocab < 2 || c.SeqLen < 1:
		return fmt.Errorf("data: vocab %d / seqlen %d too small", c.Vocab, c.SeqLen)
	case c.Zipf < 0 || c.Determinism < 0 || c.Determinism > 1:
		return fmt.Errorf("data: invalid zipf %v / determinism %v", c.Zipf, c.Determinism)
	case c.ImageFrac < 0 || c.ImageFrac >= 1:
		return fmt.Errorf("data: image fraction %v out of [0,1)", c.ImageFrac)
	}
	return nil
}

// Corpus is a deterministic, seekable stream of training sequences.
type Corpus struct {
	cfg CorpusConfig
	rng *tensor.RNG
	cdf []float64 // Zipf CDF over the text vocabulary
	tv  int       // text vocab size (rest are image tokens)
}

// NewSynthetic builds a corpus generator.
func NewSynthetic(cfg CorpusConfig) (*Corpus, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Corpus{cfg: cfg, rng: tensor.NewRNG(cfg.Seed)}
	c.tv = cfg.Vocab - int(float64(cfg.Vocab)*cfg.ImageFrac)
	if c.tv < 2 {
		c.tv = 2
	}
	// Zipf CDF over text tokens.
	c.cdf = make([]float64, c.tv)
	var sum float64
	for i := 0; i < c.tv; i++ {
		sum += 1 / math.Pow(float64(i+1), cfg.Zipf)
		c.cdf[i] = sum
	}
	for i := range c.cdf {
		c.cdf[i] /= sum
	}
	return c, nil
}

// Config returns the corpus configuration.
func (c *Corpus) Config() CorpusConfig { return c.cfg }

// RNGState returns the data-order stream position. Together with the
// corpus configuration it fully determines every future batch, so a
// checkpoint that stores it can resume bit-exactly mid-corpus.
func (c *Corpus) RNGState() uint64 { return c.rng.State() }

// SetRNGState repositions the data-order stream at a captured state.
func (c *Corpus) SetRNGState(s uint64) { c.rng.SetState(s) }

// sampleZipf draws a text token from the Zipf marginal.
func (c *Corpus) sampleZipf(r *tensor.RNG) int {
	u := r.Float64()
	lo, hi := 0, len(c.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// NextSequence produces one sequence of SeqLen+1 tokens (the extra
// token supplies the final next-token target).
func (c *Corpus) NextSequence() []int {
	cfg := c.cfg
	seq := make([]int, cfg.SeqLen+1)
	cur := c.sampleZipf(c.rng)
	inImage := false
	imgVocab := cfg.Vocab - c.tv
	for i := range seq {
		// Occasionally switch modality if image tokens exist.
		if imgVocab > 0 && c.rng.Float64() < 0.05 {
			inImage = !inImage
		}
		seq[i] = cur
		if inImage && imgVocab > 0 {
			// Image segments: affine walk inside the image region.
			nxt := c.tv + ((cur*5+7)%imgVocab+imgVocab)%imgVocab
			if c.rng.Float64() >= cfg.Determinism {
				nxt = c.tv + c.rng.Intn(imgVocab)
			}
			cur = nxt
			continue
		}
		if c.rng.Float64() < cfg.Determinism {
			cur = (cur*3 + 1) % c.tv // learnable affine rule
		} else {
			cur = c.sampleZipf(c.rng)
		}
	}
	return seq
}

// Batch materializes a flattened batch of b sequences: ids and
// next-token targets, each of length b*SeqLen.
func (c *Corpus) Batch(b int) (ids, targets []int) {
	ids = make([]int, 0, b*c.cfg.SeqLen)
	targets = make([]int, 0, b*c.cfg.SeqLen)
	for i := 0; i < b; i++ {
		seq := c.NextSequence()
		ids = append(ids, seq[:c.cfg.SeqLen]...)
		targets = append(targets, seq[1:]...)
	}
	return ids, targets
}
