package nn

import (
	"math"
	"math/rand"
	"testing"
)

// numericalGrad computes dLoss/dw for one weight by central differences.
func numericalGrad(loss func() float64, w *float64) float64 {
	const eps = 1e-6
	orig := *w
	*w = orig + eps
	up := loss()
	*w = orig - eps
	down := loss()
	*w = orig
	return (up - down) / (2 * eps)
}

// TestDenseGradients verifies MLP backprop against numerical gradients,
// on a dense input and on inputs with exact zeros, whose terms the input
// layer skips (see nonZero).
func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP(1, []int{4, 5, 3}, []Activation{ActTanh, ActIdentity})
	dense := make([]float64, 4)
	target := make([]float64, 3)
	for i := range dense {
		dense[i] = rng.NormFloat64()
	}
	for i := range target {
		target[i] = rng.NormFloat64()
	}
	for name, x := range map[string][]float64{
		"dense":      dense,
		"some zeros": {0, dense[1], 0, dense[3]},
		"all zero":   make([]float64, 4),
	} {
		loss := func() float64 { return MSE(m.Forward(x), target, nil) }

		// Analytic gradients.
		ZeroGrads(m)
		grad := make([]float64, 3)
		MSE(m.Forward(x), target, grad)
		m.Backward(grad)

		for _, p := range m.Params() {
			for i := range p.W {
				want := numericalGrad(loss, &p.W[i])
				got := p.G[i]
				if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
					t.Fatalf("%s input: %s[%d]: analytic %g, numerical %g", name, p.Name, i, got, want)
				}
			}
		}
	}
}

// TestDenseInputGradient checks the one dLoss/dInput the public API still
// returns — a lone layer's Dense.Backward; an MLP's Backward returns
// nothing — against numerical differentiation, zeros in the input
// included.
func TestDenseInputGradient(t *testing.T) {
	d := NewDense(rand.New(rand.NewSource(5)), 4, 3, ActTanh)
	x := []float64{0.4, 0, -1.2, 0}
	target := []float64{0.1, -0.6, 0.9}
	loss := func() float64 { return MSE(d.Forward(x), target, nil) }
	grad := make([]float64, 3)
	MSE(d.Forward(x), target, grad)
	got := append([]float64(nil), d.Backward(grad)...)
	for i := range x {
		if want := numericalGrad(loss, &x[i]); math.Abs(got[i]-want) > 1e-5*(1+math.Abs(want)) {
			t.Errorf("dLoss/dInput[%d]: analytic %g, numerical %g", i, got[i], want)
		}
	}
}

// TestDenseGradientsAllActivations runs the gradient check through every
// activation type.
func TestDenseGradientsAllActivations(t *testing.T) {
	for _, act := range []Activation{ActIdentity, ActReLU, ActSigmoid, ActTanh} {
		t.Run(act.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(2))
			m := NewMLP(2, []int{3, 4, 2}, []Activation{act, ActIdentity})
			x := []float64{0.3, -0.7, 1.1}
			target := []float64{0.5, -0.2}
			_ = rng
			loss := func() float64 { return MSE(m.Forward(x), target, nil) }
			ZeroGrads(m)
			grad := make([]float64, 2)
			MSE(m.Forward(x), target, grad)
			m.Backward(grad)
			for _, p := range m.Params() {
				for i := range p.W {
					want := numericalGrad(loss, &p.W[i])
					got := p.G[i]
					// ReLU is non-differentiable at 0; central differences
					// may straddle the kink, so use a looser bound.
					tol := 1e-5 * (1 + math.Abs(want))
					if act == ActReLU {
						tol = 1e-3 * (1 + math.Abs(want))
					}
					if math.Abs(got-want) > tol {
						t.Fatalf("%s[%d]: analytic %g, numerical %g", p.Name, i, got, want)
					}
				}
			}
		})
	}
}

// TestLSTMGradients verifies LSTM BPTT against numerical gradients — the
// strongest correctness check in the package — on a dense window and on
// one with exact zeros, an all-zero row among them.
func TestLSTMGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := NewLSTM(3, 3, 4, 2)
	dense := make([][]float64, 3)
	for i := range dense {
		dense[i] = make([]float64, 3)
		for j := range dense[i] {
			dense[i][j] = rng.NormFloat64() * 0.5
		}
	}
	target := []float64{0.7, -0.3}
	for name, window := range map[string][][]float64{
		"dense":      dense,
		"with zeros": {{0, dense[0][1], 0}, {0, 0, 0}, {dense[2][0], 0, dense[2][2]}},
	} {
		loss := func() float64 { return MSE(l.Forward(window), target, nil) }

		ZeroGrads(l)
		grad := make([]float64, 2)
		MSE(l.Forward(window), target, grad)
		l.Backward(grad)

		for _, p := range l.Params() {
			for i := range p.W {
				want := numericalGrad(loss, &p.W[i])
				got := p.G[i]
				if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
					t.Fatalf("%s window: %s[%d]: analytic %g, numerical %g", name, p.Name, i, got, want)
				}
			}
		}
	}
}

// TestGradientAccumulation verifies that two Backward calls accumulate.
func TestGradientAccumulation(t *testing.T) {
	m := NewMLP(4, []int{2, 2}, []Activation{ActIdentity})
	x := []float64{1, 2}
	target := []float64{0, 0}
	grad := make([]float64, 2)

	ZeroGrads(m)
	MSE(m.Forward(x), target, grad)
	m.Backward(grad)
	once := append([]float64(nil), m.Params()[0].G...)

	MSE(m.Forward(x), target, grad)
	m.Backward(grad)
	for i, g := range m.Params()[0].G {
		if math.Abs(g-2*once[i]) > 1e-12 {
			t.Fatalf("grad[%d] = %g after two passes, want %g", i, g, 2*once[i])
		}
	}
}

func TestClipGrads(t *testing.T) {
	p := &Param{W: make([]float64, 2), G: []float64{30, 40}} // norm 50
	clipGrads([]*Param{p}, 5)
	norm := math.Hypot(p.G[0], p.G[1])
	if math.Abs(norm-5) > 1e-9 {
		t.Errorf("clipped norm = %g, want 5", norm)
	}
	// Below the limit: untouched.
	p.G = []float64{0.3, 0.4}
	clipGrads([]*Param{p}, 5)
	if p.G[0] != 0.3 || p.G[1] != 0.4 {
		t.Error("small grads modified")
	}
}

func TestMSEPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on dimension mismatch")
		}
	}()
	MSE([]float64{1}, []float64{1, 2}, nil)
}
