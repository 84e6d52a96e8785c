package train

import (
	"math"

	"bagualu/internal/nn"
	"bagualu/internal/tensor"
)

// LAMB is the layer-wise adaptive large-batch optimizer (You et al.),
// the standard choice for the huge global batches that machine-scale
// data parallelism produces: each parameter tensor's Adam-style
// update is rescaled by the trust ratio ||w|| / ||update|| so that
// layers with small weights are not swamped by large-batch gradient
// magnitudes.
type LAMB struct {
	Beta1, Beta2 float32
	Eps          float32
	WeightDecay  float32
	// MaxTrust caps the trust ratio (10 is the common default).
	MaxTrust float32

	step int
	m    map[*nn.Param]*tensor.Tensor
	v    map[*nn.Param]*tensor.Tensor
}

// NewLAMB constructs LAMB with conventional defaults.
func NewLAMB(weightDecay float32) *LAMB {
	return &LAMB{
		Beta1: 0.9, Beta2: 0.999, Eps: 1e-6, WeightDecay: weightDecay, MaxTrust: 10,
		m: map[*nn.Param]*tensor.Tensor{}, v: map[*nn.Param]*tensor.Tensor{},
	}
}

// Step applies one LAMB update.
func (l *LAMB) Step(params []*nn.Param, lr float32) {
	l.step++
	bc1 := 1 - float32(math.Pow(float64(l.Beta1), float64(l.step)))
	bc2 := 1 - float32(math.Pow(float64(l.Beta2), float64(l.step)))
	for _, p := range params {
		m := l.m[p]
		v := l.v[p]
		if m == nil {
			m = tensor.New(p.W.Shape...)
			v = tensor.New(p.W.Shape...)
			l.m[p] = m
			l.v[p] = v
		}
		w, g := p.W.Data, p.G.Data
		md, vd := m.Data, v.Data

		// Adam-style direction with decoupled weight decay.
		upd := make([]float32, len(w))
		var wNorm, uNorm float64
		for i := range w {
			md[i] = l.Beta1*md[i] + (1-l.Beta1)*g[i]
			vd[i] = l.Beta2*vd[i] + (1-l.Beta2)*g[i]*g[i]
			mh := md[i] / bc1
			vh := vd[i] / bc2
			u := mh/(float32(math.Sqrt(float64(vh)))+l.Eps) + l.WeightDecay*w[i]
			upd[i] = u
			wNorm += float64(w[i]) * float64(w[i])
			uNorm += float64(u) * float64(u)
		}
		trust := float32(1)
		if wNorm > 0 && uNorm > 0 {
			trust = float32(math.Sqrt(wNorm) / math.Sqrt(uNorm))
			if trust > l.MaxTrust {
				trust = l.MaxTrust
			}
		}
		step := lr * trust
		for i := range w {
			w[i] -= step * upd[i]
		}
	}
}

// StepCount returns updates applied so far.
func (l *LAMB) StepCount() int { return l.step }
