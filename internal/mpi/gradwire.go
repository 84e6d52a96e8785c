package mpi

import "bagualu/internal/half"

// GradWire is the wire format of the gradient collectives,
// AllReduceGrads and ReduceScatterShard. The zero value sends every hop
// as float32: AllReduceGrads is then AllReduce with OpSum.
//
// With Scale S > 0 — the loss scale of an FP16 or Mixed run, after
// which every gradient is h/S for an FP16 h — each hop that carries one
// rank's own contribution or a finished sum travels as the FP16 h = v·S,
// 2 bytes an element: a ring's first reduce-scatter hop, the rail
// schedule's local phases and every all-gather hop. The first hop is
// lossless. The owner of a reduced chunk rounds its float32 sum to the
// FP16 grid at S once, so every rank applies the same bits,
// round16(sum·S)/S, and a sum past the FP16 range arrives as ±Inf.
// Hops that carry partial sums stay float32, so every element is summed
// in the FP32 collective's association and its result is exactly that
// sum, rounded once.
//
// Inside, a 16-bit collective works in wire units, v·S: it scales the
// caller's values on the way in (toWire) and back on the way out
// (fromWire), so its hops encode and decode plain FP16 and the owner's
// rounding is a plain FP16 round trip. With a power-of-two S the
// scaling is exact and every sum in wire units is S times the FP32
// collective's, bit for bit. Each rank scales by its own S; the
// loss-scale policy keeps peers in step.
type GradWire struct{ Scale float32 }

// half reports whether the wire sends 16-bit hops.
func (w GradWire) half() bool { return w.Scale > 0 }

// toWire copies src into dst in wire units.
func (w GradWire) toWire(dst, src []float32) {
	if !w.half() {
		copy(dst, src)
		return
	}
	scaleInto(dst, src, w.Scale)
}

// fromWire copies src, in wire units, into dst in the caller's.
func (w GradWire) fromWire(dst, src []float32) {
	if !w.half() {
		copy(dst, src)
		return
	}
	scaleInto(dst, src, 1/w.Scale)
}

// scaleInto sets dst[i] = src[i]·s, four elements a step.
func scaleInto(dst, src []float32, s float32) {
	dst = dst[:len(src)]
	n := len(src) &^ 3
	for i := 0; i < n; i += 4 {
		d, x := dst[i:i+4:i+4], src[i:i+4:i+4]
		d[0], d[1], d[2], d[3] = x[0]*s, x[1]*s, x[2]*s, x[3]*s
	}
	for i := n; i < len(src); i++ {
		dst[i] = src[i] * s
	}
}

// round is the owner's one rounding of a finished sum, in wire units.
func (w GradWire) round(x []float32) {
	if w.half() {
		half.QuantizeSliceFast(x)
	}
}
