package tensor

import "math"

// AdamCoeffs are the scalars of one Adam update: the moments' decay
// rates, eps, the decoupled (AdamW) weight decay, the learning rate and
// the step's bias corrections BC1 = 1-Beta1^t and BC2 = 1-Beta2^t.
type AdamCoeffs struct {
	Beta1, Beta2, Eps, WeightDecay, LR float32
	BC1, BC2                           float32
}

// AdamUpdate applies one Adam update to every element i < len(g):
//
//	m[i] = b1*m[i] + (1-b1)*g[i]
//	v[i] = b2*v[i] + (1-b2)*g[i]*g[i]
//	u := (m[i]/bc1) / (float32(math.Sqrt(float64(v[i]/bc2))) + eps)
//	if wd > 0 { u += wd*w[i] }
//	dst[i] = w[i] - lr*u
//
// every operation rounded to float32 on its own (never fused; a
// correctly rounded float32 square root equals the float64 one rounded
// to float32), so the result does not depend on which path runs. dst
// may be w — Adam updates its weights in place — or a separate slice,
// ZeRO's updated shard. The elements are independent, so the range is
// cut across the kernel workers.
func AdamUpdate(dst, w, g, m, v []float32, c AdamCoeffs) {
	n := len(g)
	dst, w, m, v = dst[:n], w[:n], m[:n], v[:n]
	Parallel(n, func(s, e int) {
		k := s + adamVec(dst[s:e], w[s:e], g[s:e], m[s:e], v[s:e], c)
		adamGeneric(dst[k:e], w[k:e], g[k:e], m[k:e], v[k:e], c)
	})
}

// adamGeneric is AdamUpdate's portable loop: the whole update without
// the vector kernel, its tail with it, and the oracle the bit-identity
// tests compare the kernel against.
func adamGeneric(dst, w, g, m, v []float32, c AdamCoeffs) {
	b1, b2, eps, wd, lr := c.Beta1, c.Beta2, c.Eps, c.WeightDecay, c.LR
	bc1, bc2 := c.BC1, c.BC2
	for i, gi := range g {
		m[i] = b1*m[i] + (1-b1)*gi
		v[i] = b2*v[i] + (1-b2)*gi*gi
		mh := m[i] / bc1
		vh := v[i] / bc2
		u := mh / (float32(math.Sqrt(float64(vh))) + eps)
		if wd > 0 {
			u += wd * w[i]
		}
		dst[i] = w[i] - lr*u
	}
}
