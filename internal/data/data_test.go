package data

import "testing"

func cfg() CorpusConfig {
	return CorpusConfig{Vocab: 64, SeqLen: 16, Zipf: 1.0, Determinism: 0.8, Seed: 1}
}

func TestValidate(t *testing.T) {
	if err := cfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg()
	bad.Vocab = 1
	if bad.Validate() == nil {
		t.Fatal("vocab 1 accepted")
	}
	bad = cfg()
	bad.Determinism = 1.5
	if bad.Validate() == nil {
		t.Fatal("determinism 1.5 accepted")
	}
	bad = cfg()
	bad.ImageFrac = 1
	if bad.Validate() == nil {
		t.Fatal("image fraction 1 accepted")
	}
}

func TestBatchShapes(t *testing.T) {
	c, err := NewSynthetic(cfg())
	if err != nil {
		t.Fatal(err)
	}
	ids, targets := c.Batch(3)
	if len(ids) != 3*16 || len(targets) != 3*16 {
		t.Fatalf("batch lengths %d/%d", len(ids), len(targets))
	}
	for i, id := range ids {
		if id < 0 || id >= 64 {
			t.Fatalf("id[%d] = %d out of vocab", i, id)
		}
		if targets[i] < 0 || targets[i] >= 64 {
			t.Fatalf("target[%d] = %d out of vocab", i, targets[i])
		}
	}
}

func TestTargetsAreShiftedIDs(t *testing.T) {
	c, _ := NewSynthetic(cfg())
	seq := c.NextSequence()
	if len(seq) != 17 {
		t.Fatalf("sequence length %d", len(seq))
	}
	// Batch targets are the ids shifted by one within each sequence.
	c2, _ := NewSynthetic(cfg())
	ids, targets := c2.Batch(1)
	for i := 0; i < 15; i++ {
		if targets[i] != ids[i+1] {
			t.Fatalf("target[%d] = %d, ids[%d] = %d", i, targets[i], i+1, ids[i+1])
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	a, _ := NewSynthetic(cfg())
	b, _ := NewSynthetic(cfg())
	ai, at := a.Batch(2)
	bi, bt := b.Batch(2)
	for i := range ai {
		if ai[i] != bi[i] || at[i] != bt[i] {
			t.Fatal("same seed produced different data")
		}
	}
	c := cfg()
	c.Seed = 2
	d, _ := NewSynthetic(c)
	di, _ := d.Batch(2)
	same := true
	for i := range ai {
		if ai[i] != di[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestZipfSkewControlsConcentration(t *testing.T) {
	concentration := func(zipf float64) float64 {
		c := cfg()
		c.Zipf = zipf
		c.Determinism = 0 // pure marginal draws
		corp, _ := NewSynthetic(c)
		h := corp.TokenHistogram(400)
		total, top := 0, 0
		max4 := make([]int, 4)
		for _, n := range h {
			total += n
			for i := range max4 {
				if n > max4[i] {
					copy(max4[i+1:], max4[i:3])
					max4[i] = n
					break
				}
			}
		}
		for _, n := range max4 {
			top += n
		}
		return float64(top) / float64(total)
	}
	uniform := concentration(0)
	skewed := concentration(1.5)
	if skewed <= uniform+0.1 {
		t.Fatalf("zipf 1.5 concentration %v !> uniform %v", skewed, uniform)
	}
}

func TestDeterminismMakesSequencesLearnable(t *testing.T) {
	// With determinism=1 and no image tokens, consecutive text tokens
	// must follow the affine rule most of the time.
	c := cfg()
	c.Determinism = 1
	c.ImageFrac = 0
	corp, _ := NewSynthetic(c)
	follows, total := 0, 0
	for s := 0; s < 50; s++ {
		seq := corp.NextSequence()
		for i := 0; i+1 < len(seq); i++ {
			total++
			if seq[i+1] == (seq[i]*3+1)%corp.TextVocab() {
				follows++
			}
		}
	}
	if float64(follows)/float64(total) < 0.9 {
		t.Fatalf("affine rule followed only %d/%d transitions", follows, total)
	}
}

func TestImageTokensAppear(t *testing.T) {
	c := cfg()
	c.ImageFrac = 0.5
	corp, err := NewSynthetic(c)
	if err != nil {
		t.Fatal(err)
	}
	if corp.TextVocab() != 32 {
		t.Fatalf("text vocab %d, want 32", corp.TextVocab())
	}
	h := corp.TokenHistogram(200)
	img := 0
	for i := corp.TextVocab(); i < len(h); i++ {
		img += h[i]
	}
	if img == 0 {
		t.Fatal("no image tokens generated despite ImageFrac=0.5")
	}
}

func TestNoImageTokensWhenDisabled(t *testing.T) {
	c := cfg()
	c.ImageFrac = 0
	corp, _ := NewSynthetic(c)
	if corp.TextVocab() != c.Vocab {
		t.Fatalf("text vocab %d != vocab %d", corp.TextVocab(), c.Vocab)
	}
}

func TestTextCorpusBatches(t *testing.T) {
	text := []byte("the quick brown fox jumps over the lazy dog. ")
	c, err := NewTextCorpusFromBytes(text, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != len(text) || c.Config().Vocab != ByteVocab || c.Config().SeqLen != 8 {
		t.Fatalf("Len %d, config %+v", c.Len(), c.Config())
	}
	ids, targets := c.Batch(3)
	if len(ids) != 24 || len(targets) != 24 {
		t.Fatalf("lengths %d/%d", len(ids), len(targets))
	}
	// Every window is a contiguous slice of the text with targets
	// shifted by one.
	for i := 0; i < 3; i++ {
		for j := 0; j < 7; j++ {
			if targets[i*8+j] != ids[i*8+j+1] {
				t.Fatal("targets are not shifted ids inside a window")
			}
		}
	}
	for _, id := range ids {
		if id < 0 || id >= ByteVocab {
			t.Fatalf("id %d out of byte vocab", id)
		}
	}
}

func TestTextCorpusTooShort(t *testing.T) {
	if _, err := NewTextCorpusFromBytes([]byte("hi"), 8, 1); err == nil {
		t.Fatal("short text accepted")
	}
	if _, err := NewTextCorpusFromBytes([]byte("long enough"), 0, 1); err == nil {
		t.Fatal("zero seq len accepted")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := "BaGuaLu: 37M cores"
	if Decode(Encode(s)) != s {
		t.Fatal("encode/decode round trip failed")
	}
}

func TestTextCorpusDeterministic(t *testing.T) {
	text := []byte("abcdefghijklmnopqrstuvwxyz0123456789")
	a, _ := NewTextCorpusFromBytes(text, 6, 7)
	b, _ := NewTextCorpusFromBytes(text, 6, 7)
	ai, _ := a.Batch(4)
	bi, _ := b.Batch(4)
	for i := range ai {
		if ai[i] != bi[i] {
			t.Fatal("same seed produced different text batches")
		}
	}
}
