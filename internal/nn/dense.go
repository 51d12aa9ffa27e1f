package nn

import (
	"fmt"
	"math/rand"
)

// Dense is a fully connected layer y = σ(Wx + b) with weights stored
// row-major (W[o*In+i] connects input i to output o).
//
// Parameters are written only at construction and by optimizer steps;
// all forward/backward state lives in a scratch workspace, so a trained
// layer can be shared by any number of goroutines as long as each uses
// its own scratch.
type Dense struct {
	In, Out int
	Act     Activation

	w *Param // len Out*In
	b *Param // len Out

	def *denseScratch // default workspace backing the convenience API
}

// denseScratch is the per-goroutine forward/backward state of one layer.
type denseScratch struct {
	in     []float64 // input cached by forward
	out    []float64 // activations cached by forward
	gradIn []float64 // backward's dLoss/dInput buffer

	// nz marks an MLP's input layer (nil everywhere else) and holds the
	// indices of its input's non-zero elements, collected by forward
	// (see nonZero). The input layer runs its dot products and its
	// dW += δ·x over that list, and has neither a dLoss/dInput nor a
	// gradIn to hold one: nothing sits upstream of it to read either.
	nz []int32
}

// NewDense creates a layer with Xavier-initialized weights.
func NewDense(rng *rand.Rand, in, out int, act Activation) *Dense {
	d := &Dense{
		In: in, Out: out, Act: act,
		w: &Param{Name: fmt.Sprintf("dense%dx%d.w", out, in), W: make([]float64, out*in), G: make([]float64, out*in)},
		b: &Param{Name: fmt.Sprintf("dense%dx%d.b", out, in), W: make([]float64, out), G: make([]float64, out)},
	}
	xavierInit(rng, d.w.W, in, out)
	return d
}

// Params implements Model.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// newScratch allocates a workspace for the layer; input says it is an
// MLP's first (see denseScratch.nz).
func (d *Dense) newScratch(input bool) *denseScratch {
	s := &denseScratch{in: make([]float64, d.In), out: make([]float64, d.Out)}
	if input {
		s.nz = make([]int32, 0, d.In)
	} else {
		s.gradIn = make([]float64, d.In)
	}
	return s
}

func (d *Dense) scratch() *denseScratch {
	if d.def == nil {
		d.def = d.newScratch(false)
	}
	return d.def
}

// forward computes the layer output into s, caching activations for a
// later backward pass through the same scratch.
func (d *Dense) forward(s *denseScratch, x []float64) []float64 {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: Dense.Forward input %d, want %d", len(x), d.In))
	}
	copy(s.in, x)
	if s.nz != nil {
		s.nz = nonZero(s.nz[:0], x)
	}
	for o := 0; o < d.Out; o++ {
		sum := d.b.W[o]
		// Sliced to len(x), so that an index checked against one of row
		// and x is known to be inside the other.
		row := d.w.W[o*d.In:][:len(x)]
		if s.nz != nil {
			for _, i := range s.nz {
				sum += row[i] * x[i]
			}
		} else {
			for i, xi := range x {
				sum += row[i] * xi
			}
		}
		s.out[o] = d.Act.apply(sum)
	}
	return s.out
}

// backward consumes dLoss/dOutput, accumulates parameter gradients into
// wG/bG (shaped like d.w.G / d.b.G), and returns dLoss/dInput. The
// returned slice is owned by s and overwritten by its next backward.
// An MLP's input layer returns nil: nothing upstream reads its
// dLoss/dInput, and its dW += δ·x runs over the non-zero inputs only.
func (d *Dense) backward(s *denseScratch, wG, bG, gradOut []float64) []float64 {
	if len(gradOut) != d.Out {
		panic(fmt.Sprintf("nn: Dense.Backward grad %d, want %d", len(gradOut), d.Out))
	}
	if s.nz != nil {
		in := s.in
		for o := 0; o < d.Out; o++ {
			delta := gradOut[o] * d.Act.derivFromOutput(s.out[o])
			bG[o] += delta
			grow := wG[o*d.In:][:len(in)]
			for _, i := range s.nz {
				grow[i] += delta * in[i]
			}
		}
		return nil
	}
	gradIn := s.gradIn
	for i := range gradIn {
		gradIn[i] = 0
	}
	for o := 0; o < d.Out; o++ {
		delta := gradOut[o] * d.Act.derivFromOutput(s.out[o])
		bG[o] += delta
		row := d.w.W[o*d.In : (o+1)*d.In]
		grow := wG[o*d.In : (o+1)*d.In]
		for i := 0; i < d.In; i++ {
			grow[i] += delta * s.in[i]
			gradIn[i] += delta * row[i]
		}
	}
	return gradIn
}

// Forward computes the layer output using the layer's default scratch —
// the single-threaded convenience API. The returned slice is overwritten
// on the next call. For concurrent use, share the layer through an MLP
// and per-goroutine MLPScratch instead.
func (d *Dense) Forward(x []float64) []float64 { return d.forward(d.scratch(), x) }

// Backward consumes dLoss/dOutput, accumulates parameter gradients into
// the layer's Params, and returns dLoss/dInput. Must follow a Forward
// call with the matching input. The returned slice is owned by the
// layer's default scratch and overwritten on the next call.
func (d *Dense) Backward(gradOut []float64) []float64 {
	return d.backward(d.scratch(), d.w.G, d.b.G, gradOut)
}

// MLP is a stack of dense layers. Like Dense, a trained MLP is
// effectively read-only: concurrent goroutines may run ForwardWith /
// BackwardWith simultaneously as long as each owns its MLPScratch.
type MLP struct {
	layers []*Dense
	params []*Param

	def *MLPScratch // default workspace backing the convenience API
	pg  [][]float64 // Param.G slices aligned with params, built lazily
}

// MLPScratch holds the per-goroutine forward/backward state for every
// layer of one MLP. Create one per goroutine with NewScratch; a scratch
// must not be used from two goroutines at once.
type MLPScratch struct {
	layers []*denseScratch
}

// NewMLP builds a multilayer perceptron with the given layer sizes
// (sizes[0] is the input dimension) and one activation per layer
// (len(acts) == len(sizes)-1).
func NewMLP(seed int64, sizes []int, acts []Activation) *MLP {
	if len(sizes) < 2 || len(acts) != len(sizes)-1 {
		panic("nn: NewMLP needs len(sizes)>=2 and len(acts)==len(sizes)-1")
	}
	rng := rand.New(rand.NewSource(seed))
	m := &MLP{}
	for i := 0; i < len(acts); i++ {
		l := NewDense(rng, sizes[i], sizes[i+1], acts[i])
		m.layers = append(m.layers, l)
		m.params = append(m.params, l.Params()...)
	}
	return m
}

// Params implements Model.
func (m *MLP) Params() []*Param { return m.params }

// Layers exposes the layer stack (read-only use).
func (m *MLP) Layers() []*Dense { return m.layers }

// NewScratch allocates a workspace sized for this network. One model
// instance can be driven from N goroutines given N scratches.
func (m *MLP) NewScratch() *MLPScratch {
	s := &MLPScratch{layers: make([]*denseScratch, len(m.layers))}
	for i, l := range m.layers {
		s.layers[i] = l.newScratch(i == 0)
	}
	return s
}

func (m *MLP) scratch() *MLPScratch {
	if m.def == nil {
		m.def = m.NewScratch()
	}
	return m.def
}

// grads returns the shared Param.G slices aligned with Params().
func (m *MLP) grads() [][]float64 {
	if m.pg == nil {
		m.pg = paramGrads(m.params)
	}
	return m.pg
}

// ForwardWith runs the network through the given workspace. The returned
// slice is owned by s and overwritten by its next forward.
func (m *MLP) ForwardWith(s *MLPScratch, x []float64) []float64 {
	for i, l := range m.layers {
		x = l.forward(s.layers[i], x)
	}
	return x
}

// backwardInto propagates dLoss/dOutput through the stack using
// workspace s, accumulating parameter gradients into grads (aligned
// with Params(), two entries — w then b — per layer). dLoss/dInput of
// the network is not computed: training never read it.
func (m *MLP) backwardInto(s *MLPScratch, grads [][]float64, gradOut []float64) {
	g := gradOut
	for i := len(m.layers) - 1; i >= 0; i-- {
		g = m.layers[i].backward(s.layers[i], grads[2*i], grads[2*i+1], g)
	}
}

// BackwardWith propagates gradients through workspace s, accumulating
// into the shared Params. Concurrent BackwardWith calls on the same
// model race on Param.G; use per-goroutine gradient buffers (as Train
// does) when training in parallel.
func (m *MLP) BackwardWith(s *MLPScratch, gradOut []float64) {
	m.backwardInto(s, m.grads(), gradOut)
}

// Forward runs the network through the default scratch (single-threaded
// convenience API). The returned slice is overwritten on the next call.
func (m *MLP) Forward(x []float64) []float64 { return m.ForwardWith(m.scratch(), x) }

// Backward propagates dLoss/dOutput through the stack, accumulating
// parameter gradients.
func (m *MLP) Backward(gradOut []float64) {
	m.backwardInto(m.scratch(), m.grads(), gradOut)
}
