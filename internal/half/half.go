// Package half implements software IEEE-754 binary16 (FP16) and
// bfloat16 arithmetic. The SW26010-Pro used by BaGuaLu has wide
// half-precision vector units; this package stands in for them so the
// mixed-precision training strategy (FP16 storage/compute with FP32
// master weights and dynamic loss scaling) can be reproduced bit-
// accurately on commodity hardware.
package half

import "math"

// Float16 is an IEEE-754 binary16 value stored in a uint16.
type Float16 uint16

// BFloat16 is a bfloat16 (truncated float32) value stored in a uint16.
type BFloat16 uint16

// Constants describing the FP16 format, used by the loss-scaling
// policy to reason about representable ranges.
const (
	MaxFloat16        = 65504.0
	SmallestNormal16  = 6.103515625e-05       // 2^-14
	SmallestSubnormal = 5.960464477539063e-08 // 2^-24
)

// FromFloat32 converts a float32 to the nearest Float16
// (round-to-nearest-even), with overflow to ±Inf and gradual
// underflow to subnormals.
func FromFloat32(f float32) Float16 {
	b := math.Float32bits(f)
	sign := uint16((b >> 16) & 0x8000)
	exp := int32((b>>23)&0xff) - 127
	man := b & 0x7fffff

	switch {
	case exp == 128: // NaN or Inf
		if man != 0 {
			return Float16(sign | 0x7e00) // quiet NaN
		}
		return Float16(sign | 0x7c00) // Inf
	case exp > 15: // overflow -> Inf
		return Float16(sign | 0x7c00)
	case exp >= -14: // normal range
		// Round mantissa from 23 to 10 bits, round-to-nearest-even.
		man16 := man >> 13
		round := man & 0x1fff
		if round > 0x1000 || (round == 0x1000 && man16&1 == 1) {
			man16++
		}
		res := uint32(sign) | uint32(exp+15)<<10 + man16
		return Float16(res)
	case exp >= -25: // subnormal range (and halfway-up from below it)
		shift := uint32(-exp - 1) // 14..24: bits dropped from the 24-bit mantissa
		full := man | 0x800000    // implicit leading 1
		man16 := full >> shift
		rem := full & ((1 << shift) - 1)
		halfway := uint32(1) << (shift - 1)
		if rem > halfway || (rem == halfway && man16&1 == 1) {
			man16++
		}
		return Float16(uint32(sign) | man16)
	default: // underflow to zero
		return Float16(sign)
	}
}

// Float32 converts a Float16 back to float32 exactly.
func (h Float16) Float32() float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	man := uint32(h & 0x3ff)
	switch {
	case exp == 0x1f: // Inf/NaN
		if man != 0 {
			return math.Float32frombits(sign | 0x7fc00000)
		}
		return math.Float32frombits(sign | 0x7f800000)
	case exp == 0: // zero or subnormal
		if man == 0 {
			return math.Float32frombits(sign)
		}
		// Normalize the subnormal.
		e := int32(-14)
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		man &= 0x3ff
		return math.Float32frombits(sign | uint32(e+127)<<23 | man<<13)
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | man<<13)
	}
}

// BFromFloat32 converts a float32 to bfloat16 with
// round-to-nearest-even.
func BFromFloat32(f float32) BFloat16 {
	b := math.Float32bits(f)
	if b&0x7fffffff > 0x7f800000 { // NaN: keep quiet bit
		return BFloat16(b>>16 | 0x40)
	}
	round := b & 0xffff
	b16 := b >> 16
	if round > 0x8000 || (round == 0x8000 && b16&1 == 1) {
		b16++
	}
	return BFloat16(b16)
}

// Float32 converts a BFloat16 back to float32 exactly.
func (h BFloat16) Float32() float32 {
	return math.Float32frombits(uint32(h) << 16)
}

// BQuantizeSlice rounds every element of x through bfloat16 in place.
func BQuantizeSlice(x []float32) {
	for i, v := range x {
		x[i] = BFromFloat32(v).Float32()
	}
}
