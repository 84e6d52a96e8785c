package tensor

import "math"

// RNG is a small, allocation-free SplitMix64-based generator. The
// reproduction cannot use math/rand's global state because thousands
// of simulated ranks need independent, seedable, reproducible
// streams.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits (SplitMix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float32 returns a uniform value in [0,1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint64()>>40) / (1 << 24)
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a standard normal sample (Box–Muller).
func (r *RNG) Norm() float32 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return float32(math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2))
}

// Split derives an independent child generator; used to give each
// simulated rank or layer its own stream from one master seed.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

// State returns the generator's current position. SplitMix64 state is
// a single word, so checkpointing the data-order stream is exact:
// restoring it with SetState resumes the identical draw sequence.
func (r *RNG) State() uint64 { return r.state }

// SetState rewinds or advances the generator to a captured position.
func (r *RNG) SetState(s uint64) { r.state = s }

// Randn returns a tensor of i.i.d. N(0, std²) samples.
func Randn(r *RNG, std float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = r.Norm() * std
	}
	return t
}

// Uniform returns a tensor of i.i.d. U[lo,hi) samples.
func Uniform(r *RNG, lo, hi float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = lo + (hi-lo)*r.Float32()
	}
	return t
}

// XavierInit fills a weight tensor of shape [out,in] (or [in,out])
// with Glorot-uniform samples based on fanIn+fanOut.
func XavierInit(r *RNG, fanIn, fanOut int, shape ...int) *Tensor {
	limit := float32(math.Sqrt(6 / float64(fanIn+fanOut)))
	return Uniform(r, -limit, limit, shape...)
}
