package nn

import "math"

// Adam is the Adam optimizer (Kingma & Ba, 2015).
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t int
	m map[*Param][]float64
	v map[*Param][]float64
}

// NewAdam returns an Adam optimizer with the standard defaults for any
// zero-valued hyperparameter.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8,
		m: make(map[*Param][]float64), v: make(map[*Param][]float64),
	}
}

// Step applies one update to params from their accumulated gradients
// (callers still ZeroGrads before the next accumulation).
func (a *Adam) Step(params []*Param) {
	a.t++
	c := adamCoef{
		b1: a.Beta1, c1: 1 - a.Beta1, b2: a.Beta2, c2: 1 - a.Beta2,
		bc1: 1 - math.Pow(a.Beta1, float64(a.t)),
		bc2: 1 - math.Pow(a.Beta2, float64(a.t)),
		lr:  a.LR, eps: a.Epsilon,
	}
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = make([]float64, len(p.W))
			a.m[p] = m
		}
		v, ok := a.v[p]
		if !ok {
			v = make([]float64, len(p.W))
			a.v[p] = v
		}
		adam(p.W, p.G, m, v, &c)
	}
}
