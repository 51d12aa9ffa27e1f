// Package nn is a small, dependency-free neural-network library
// implementing the two unsupervised models the 6G-XSec paper deploys in
// the MobiWatch xApp (§3.2): a dense Autoencoder trained to reconstruct
// benign telemetry windows, and an LSTM trained to predict the next
// telemetry entry from a window.
//
// The library provides float64 tensors, dense and LSTM layers with full
// backpropagation (verified against numerical differentiation in the
// tests), MSE loss, SGD and Adam optimizers, deterministic seeded
// initialization, and JSON model serialization for the SMO's
// train-then-deploy workflow.
//
// Scale note: the paper's models are deliberately "lightweight" so they
// can run inside an xApp within the near-RT control loop (10 ms–1 s);
// window-sized inputs and one or two hidden layers. This library targets
// exactly that scale and favors clarity and determinism over SIMD tricks.
// The one liberty the float64 path takes is exact: telemetry rows are
// mostly zeros (one-hot groups), so the two input layers — the MLP's
// first Dense and the LSTM's wx — run over the indices of the non-zero
// inputs and skip the "+ w·0" terms, in training, calibration and
// reference scoring alike (see nonZero).
//
// Concurrency model: layer structs hold only parameters; all forward and
// backward state lives in explicit per-goroutine workspaces (MLPScratch,
// AEScratch, LSTMScratch) created by the models' NewScratch methods. A
// trained model is therefore read-only and can be scored from any number
// of goroutines at once, allocation-free in steady state. The plain
// Forward/Backward/Score methods remain as single-threaded convenience
// wrappers over a per-model default scratch. Training fans mini-batches
// out over worker goroutines while keeping loss curves bit-for-bit
// reproducible for a fixed seed (see parallel.go).
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Activation selects a layer's nonlinearity.
type Activation uint8

// Activations.
const (
	ActIdentity Activation = iota
	ActReLU
	ActSigmoid
	ActTanh
)

// String returns the activation name.
func (a Activation) String() string {
	switch a {
	case ActIdentity:
		return "identity"
	case ActReLU:
		return "relu"
	case ActSigmoid:
		return "sigmoid"
	case ActTanh:
		return "tanh"
	}
	return fmt.Sprintf("Activation(%d)", uint8(a))
}

func (a Activation) apply(x float64) float64 {
	switch a {
	case ActReLU:
		if x < 0 {
			return 0
		}
		return x
	case ActSigmoid:
		return 1 / (1 + math.Exp(-x))
	case ActTanh:
		return math.Tanh(x)
	default:
		return x
	}
}

// derivFromOutput returns dσ/dx expressed in terms of the activation
// output y = σ(x), which all four supported activations allow.
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case ActReLU:
		if y > 0 {
			return 1
		}
		return 0
	case ActSigmoid:
		return y * (1 - y)
	case ActTanh:
		return 1 - y*y
	default:
		return 1
	}
}

// Param is one trainable tensor with its gradient accumulator. Optimizers
// update W in place from G.
type Param struct {
	Name string
	W    []float64
	G    []float64
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// Model is the common interface of trainable models.
type Model interface {
	// Params returns all trainable parameters. The slice and the Param
	// pointers are stable across calls.
	Params() []*Param
}

// ZeroGrads clears every gradient in the model.
func ZeroGrads(m Model) {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// nonZero appends the indices of x's non-zero elements to dst, in
// ascending order. The float64 input layers (the MLP's first Dense, the
// LSTM's wx) run their dot products and their dW += δ·x over this list:
// a telemetry row is one-hot groups plus a few reals, about one element
// in six non-zero. Every sum keeps its operands and their order minus
// the "+ w·0" terms, so for finite weights the result is the dense
// loop's — the one representable difference is the sign of a sum that is
// itself zero, which compares equal and propagates equal.
func nonZero(dst []int32, x []float64) []int32 {
	for i, v := range x {
		if v != 0 {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// xavierInit fills w with Glorot-uniform values for a fan-in/fan-out pair.
func xavierInit(rng *rand.Rand, w []float64, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range w {
		w[i] = (rng.Float64()*2 - 1) * limit
	}
}

// MSE returns the mean squared error between prediction and target, and
// writes dLoss/dPred into grad if non-nil.
func MSE(pred, target, grad []float64) float64 {
	if len(pred) != len(target) {
		panic(fmt.Sprintf("nn: MSE dimension mismatch %d vs %d", len(pred), len(target)))
	}
	var sum float64
	n := float64(len(pred))
	for i := range pred {
		d := pred[i] - target[i]
		sum += d * d
		if grad != nil {
			grad[i] = 2 * d / n
		}
	}
	return sum / n
}

// clipGrads scales gradients so their global L2 norm does not exceed max,
// stabilizing LSTM training.
func clipGrads(params []*Param, max float64) {
	var sq float64
	for _, p := range params {
		for _, g := range p.G {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if norm <= max || norm == 0 {
		return
	}
	scale := max / norm
	for _, p := range params {
		for i := range p.G {
			p.G[i] *= scale
		}
	}
}
