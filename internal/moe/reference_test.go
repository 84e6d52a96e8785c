package moe

import (
	"fmt"

	"bagualu/internal/nn"
	"bagualu/internal/tensor"
)

// refMoE is the test oracle for the MoE layer: its gate and every one
// of its experts, drawn from the RNG in the order NewDistMoEComm draws
// them, so expert e holds the weights it has on whichever rank owns it.
type refMoE struct {
	gate    *Gate
	experts []*nn.FeedForward
}

func newRefMoE(name string, r *tensor.RNG, cfg GateConfig, hidden int) *refMoE {
	m := &refMoE{gate: NewGate(name+".gate", r, cfg)}
	for e := 0; e < cfg.NumExperts; e++ {
		m.experts = append(m.experts, nn.NewFeedForward(fmt.Sprintf("%s.expert%d", name, e), r, cfg.Dim, hidden))
	}
	return m
}

// forward is the layer written the slow, obvious way: route x, then for
// each token and each of its assignments run that one row through the
// chosen expert and add the result times its combine weight. infer
// takes the inference gate and expert forwards instead of the training
// ones.
func (m *refMoE) forward(x *tensor.Tensor, infer bool) *tensor.Tensor {
	tokens, d := x.Shape[0], x.Shape[1]
	var assign [][]Assignment
	if infer {
		assign = m.gate.InferRoute(x)
	} else {
		assign = m.gate.Forward(x).Assign
	}
	out := tensor.New(tokens, d)
	for t, as := range assign {
		row := tensor.New(1, d)
		copy(row.Data, x.Row(t))
		for _, a := range as {
			if a.Dropped {
				continue
			}
			var y *tensor.Tensor
			if infer {
				y = m.experts[a.Expert].Infer(row)
			} else {
				y = m.experts[a.Expert].Forward(row)
			}
			o := out.Row(t)
			for j := range o {
				o[j] += a.Weight * y.Data[j]
			}
		}
	}
	return out
}
