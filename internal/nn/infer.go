package nn

import "fmt"

// This file is the public surface of the batched inference engine.
// Trained models stay float64 — training, checkpoints and the scalar
// forward pass are untouched — and QuantizeF32 converts a trained model
// into an immutable float32 engine.
//
// Engines score whole batches of windows: one tiled matrix-matrix
// product per layer instead of one GEMV per window, with the activation
// and residual-error passes fused so per-window scores come out without
// materializing reconstructions. All scratch lives in a reusable arena,
// so steady-state scoring performs no heap allocation.

// Precision names an inference engine's arithmetic. Float32 is its only
// value: the type survives because benchmark/probes.go passes nn.Float32
// to mobiwatch's ScoreTrace*Batched, and goes when that caller stops.
type Precision int

// Float32 stores weights and computes in single precision.
const Float32 Precision = 1

// ensureF32 grows a float32 arena buffer to at least n elements,
// preserving nothing. Steady state (fixed batch size) never grows.
func ensureF32(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// AEInference is an immutable float32 autoencoder engine. Build one
// with Autoencoder.QuantizeF32; score batches of windows with
// ScoreWindows. Safe for concurrent use with per-goroutine scratches.
type AEInference struct {
	planes   []plane
	inputDim int
	maxPad   int // widest plane output, for scratch sizing
}

// AEBatchScratch is the per-goroutine arena for AEInference.ScoreWindows.
// Activations ping-pong between two buffers sized for the widest layer.
type AEBatchScratch struct {
	a, b []float32
	nz   []int32 // one window's non-zero input columns
}

// QuantizeF32 converts the trained autoencoder into a float32 batched
// inference engine. The autoencoder is unchanged and further training
// does not affect the returned engine.
func (a *Autoencoder) QuantizeF32() *AEInference {
	e := &AEInference{inputDim: a.inputDim}
	for _, l := range a.net.Layers() {
		p := newPlane(l.w.W, l.b.W, l.In, l.Out, l.Act)
		if p.outPad > e.maxPad {
			e.maxPad = p.outPad
		}
		e.planes = append(e.planes, p)
	}
	return e
}

// NewBatchScratch allocates an empty arena; ScoreWindows grows it to the
// largest batch seen and then reuses it.
func (e *AEInference) NewBatchScratch() *AEBatchScratch { return &AEBatchScratch{} }

// Rows is a row-major float32 matrix with each row's non-zero columns
// listed beside it: row r is X[r*Dim:(r+1)*Dim], and Cols[Off[r]:Off[r+1]]
// holds, ascending, every column of it whose bit pattern is not zero (so
// a −0 is listed). The engines cut windows of consecutive rows out of
// it, read in place, and run their input layers over the listed columns
// only. feature.RowBuffer keeps its rows in this form.
type Rows struct {
	X    []float32
	Dim  int
	Cols []int32
	Off  []int32
}

// cols returns row r's non-zero column list.
func (r *Rows) cols(row int) []int32 { return r.Cols[r.Off[row]:r.Off[row+1]] }

// check panics unless rows [lo, hi) are present.
func (r *Rows) check(what string, lo, hi int) {
	if lo < 0 || hi*r.Dim > len(r.X) || hi >= len(r.Off) {
		panic(fmt.Sprintf("nn: %s reads rows [%d, %d) of %d×%d floats and %d column lists",
			what, lo, hi, len(r.X), r.Dim, len(r.Off)-1))
	}
}

// ScoreWindows scores len(starts) windows and writes one score per
// window into scores: window m is the InputDim/Dim consecutive rows of
// in from starts[m], and its score is the worst per-row reconstruction
// MSE (a row of a MobiWatch window is one record; with Dim == InputDim
// it is the whole-window MSE of Autoencoder.ScoreWith).
//
// The first plane runs over each window's non-zero columns, the rows'
// lists concatenated with row t's offset by t·Dim, so ascending: the
// same product-sums in the same order as a dense pass, less the terms
// whose input is +0, which leave every sum as it was. The reconstruction
// is never materialized for the caller: the final layer's error pass is
// fused with the scoring reduction. After warm-up the call performs no
// heap allocation.
func (e *AEInference) ScoreWindows(s *AEBatchScratch, in Rows, starts []int, scores []float32) {
	n := len(starts)
	if n == 0 {
		return
	}
	dim := in.Dim
	if dim <= 0 || e.inputDim%dim != 0 {
		panic(fmt.Sprintf("nn: AEInference.ScoreWindows rows of %d do not tile input %d", dim, e.inputDim))
	}
	if len(scores) < n {
		panic(fmt.Sprintf("nn: AEInference.ScoreWindows scores len %d < n %d", len(scores), n))
	}
	T := e.inputDim / dim
	s.a = ensureF32(s.a, n*e.maxPad)
	s.b = ensureF32(s.b, n*e.maxPad)

	p := &e.planes[0]
	out := s.a
	for m, st := range starts {
		in.check("AEInference.ScoreWindows", st, st+T)
		nz := s.nz[:0]
		for t := 0; t < T; t++ {
			for _, c := range in.cols(st + t) {
				nz = append(nz, int32(t*dim)+c)
			}
		}
		s.nz = nz
		y := out[m*p.outPad : (m+1)*p.outPad]
		copy(y, p.bias)
		p.gemmIdx(y, in.X[st*dim:st*dim+e.inputDim], nz)
	}
	p.activate(out, n)

	cur, curStride := out, p.outPad
	out = s.b
	for i := 1; i < len(e.planes); i++ {
		p := &e.planes[i]
		p.fillBias(out, n)
		p.gemm(out, p.outPad, cur, curStride, n)
		p.activate(out, n)
		cur, curStride = out, p.outPad
		if i%2 == 0 {
			out = s.b
		} else {
			out = s.a
		}
	}

	// Fused residual-error pass: cur holds the reconstruction (logical
	// width inputDim, row stride curStride); compare against the input.
	for m, st := range starts {
		scores[m] = worstRowMSE(cur[m*curStride:m*curStride+e.inputDim], in.X[st*dim:st*dim+e.inputDim], dim)
	}
}

// worstRowMSE returns the largest per-row mean squared error of recon
// against x, rows of dim. Each row's sum runs in column order, one
// rounding per product and per sum, as a plain loop does; four rows run
// interleaved, which changes how many sums are in flight, never a sum.
func worstRowMSE(recon, x []float32, dim int) float32 {
	var worst float32
	keep := func(sum float32) {
		if mse := sum / float32(dim); mse > worst {
			worst = mse
		}
	}
	off := 0
	for ; off+4*dim <= len(x); off += 4 * dim {
		r0, r1, r2, r3 := recon[off:][:dim], recon[off+dim:][:dim], recon[off+2*dim:][:dim], recon[off+3*dim:][:dim]
		x0, x1, x2, x3 := x[off:][:dim], x[off+dim:][:dim], x[off+2*dim:][:dim], x[off+3*dim:][:dim]
		var s0, s1, s2, s3 float32
		for i := range x0 {
			d0, d1, d2, d3 := r0[i]-x0[i], r1[i]-x1[i], r2[i]-x2[i], r3[i]-x3[i]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		keep(s0)
		keep(s1)
		keep(s2)
		keep(s3)
	}
	for ; off < len(x); off += dim {
		var sum float32
		for i := off; i < off+dim; i++ {
			d := recon[i] - x[i]
			sum += d * d
		}
		keep(sum)
	}
	return worst
}

// LSTMInference is an immutable float32 LSTM engine. Build one with
// LSTM.QuantizeF32; score batches of windows with ScoreWindows. Safe for
// concurrent use with per-goroutine scratches.
type LSTMInference struct {
	inDim, hidDim, outDim int

	wx   plane // (4H)×D gate input weights, bias = gate bias
	wh   plane // (4H)×H recurrent weights, bias zero
	head plane // Dout×H projection head
}

// LSTMBatchScratch is the per-goroutine arena for LSTMInference.ScoreWindows.
type LSTMBatchScratch struct {
	proj  []float32 // rows × padCols(4H) input projections, bias included
	gates []float32 // n × padCols(4H) gate pre-activations
	h, c  []float32 // n × H running state
	pred  []float32 // n × padCols(Dout) head output
}

// QuantizeF32 converts the trained LSTM into a float32 batched inference
// engine. The LSTM is unchanged and further training does not affect the
// returned engine.
func (l *LSTM) QuantizeF32() *LSTMInference {
	H := l.hidDim
	return &LSTMInference{
		inDim: l.inDim, hidDim: H, outDim: l.outDim,
		wx:   newPlane(l.wx.W, l.b.W, l.inDim, 4*H, ActIdentity),
		wh:   newPlane(l.wh.W, make([]float64, 4*H), H, 4*H, ActIdentity),
		head: newPlane(l.wy.W, l.by.W, H, l.outDim, ActIdentity),
	}
}

// NewBatchScratch allocates an empty arena; ScoreWindows grows it to the
// largest batch seen and then reuses it.
func (e *LSTMInference) NewBatchScratch() *LSTMBatchScratch { return &LSTMBatchScratch{} }

// ScoreWindows scores len(starts) windows of T timesteps each: window m
// is the T consecutive rows of in from starts[m], and the row after them
// is the actual next vector its prediction is scored against. One
// next-step prediction MSE per window is written into scores, matching
// LSTM.ScoreWith. After warm-up the call performs no heap allocation.
//
// A row sits in up to T of the windows, so its input projection —
// bias + x·Wx over its non-zero columns — is computed once per call for
// every row the windows span, and each step's gate pre-activations start
// as a copy of the right one. The state starts at zero, so step 0 skips
// the recurrent GEMM, and each later step adds h·Wh over the whole batch
// before one fused gate/state pass. Every window's arithmetic is that of
// a dense pass over its own rows, whatever else is in the batch.
func (e *LSTMInference) ScoreWindows(s *LSTMBatchScratch, in Rows, starts []int, T int, scores []float32) {
	n := len(starts)
	if n == 0 {
		return
	}
	if T <= 0 {
		panic("nn: LSTMInference.ScoreWindows on empty window")
	}
	if in.Dim != e.inDim || e.outDim != e.inDim {
		panic(fmt.Sprintf("nn: LSTMInference.ScoreWindows rows of %d, engine maps %d to %d", in.Dim, e.inDim, e.outDim))
	}
	if len(scores) < n {
		panic(fmt.Sprintf("nn: LSTMInference.ScoreWindows scores len %d < n %d", len(scores), n))
	}
	H, dim := e.hidDim, in.Dim
	gp := e.wx.outPad
	hp := e.head.outPad

	// Every row from the first window's first step to the last window's
	// last; callers push windows in row order, so this is each row the
	// batch reads, plus any a gap between windows skips.
	lo, hi := starts[0], starts[0]+T
	for _, st := range starts {
		lo, hi = min(lo, st), max(hi, st+T)
	}
	in.check("LSTMInference.ScoreWindows", lo, hi+1) // +1: the targets
	s.proj = ensureF32(s.proj, (hi-lo)*gp)
	for r := lo; r < hi; r++ {
		y := s.proj[(r-lo)*gp : (r-lo+1)*gp]
		copy(y, e.wx.bias)
		e.wx.gemmIdx(y, in.X[r*dim:(r+1)*dim], in.cols(r))
	}

	s.gates = ensureF32(s.gates, n*gp)
	s.h = ensureF32(s.h, n*H)
	s.c = ensureF32(s.c, n*H)
	s.pred = ensureF32(s.pred, n*hp)
	clear(s.c)
	for t := 0; t < T; t++ {
		for m, st := range starts {
			copy(s.gates[m*gp:(m+1)*gp], s.proj[(st+t-lo)*gp:])
		}
		if t > 0 {
			e.wh.gemm(s.gates, gp, s.h, H, n)
		}
		lstmCell(s.gates, gp, s.c, s.h, H, n)
	}

	e.head.fillBias(s.pred, n)
	e.head.gemm(s.pred, hp, s.h, H, n)

	// Fused residual-error pass: prediction MSE against the targets.
	for m, st := range starts {
		pred := s.pred[m*hp:]
		tgt := in.X[(st+T)*dim:]
		var sum float32
		for o := 0; o < e.outDim; o++ {
			d := pred[o] - tgt[o]
			sum += d * d
		}
		scores[m] = sum / float32(e.outDim)
	}
}

// lstmCell advances n rows of LSTM state by one step. Row m's gate
// pre-activations g[m·gStride:], stacked i|f|g|o, become activations in
// place; then c = f·c + i·g and h = o·tanh(c) over the rows of c and h
// (stride H). It is a package variable so tests can force the portable
// version; init in gemm_amd64.go upgrades it to one AVX2 kernel that
// computes the same bits.
var lstmCell = lstmCellGo

// lstmCellGo is the portable cell pass: the input and forget sigmoids
// share one vector call, and the state update reuses the h row as
// scratch for tanh(c) before the output gate scales it.
func lstmCellGo(g []float32, gStride int, c, h []float32, H, n int) {
	for m := 0; m < n; m++ {
		gr := g[m*gStride : m*gStride+4*H]
		cRow := c[m*H : (m+1)*H]
		hRow := h[m*H : (m+1)*H]
		vsigmoidF32(gr[:2*H])   // i|f
		vtanhF32(gr[2*H : 3*H]) // g
		vsigmoidF32(gr[3*H:])   // o
		for j := 0; j < H; j++ {
			cRow[j] = gr[H+j]*cRow[j] + gr[j]*gr[2*H+j]
		}
		copy(hRow, cRow)
		vtanhF32(hRow)
		for j := 0; j < H; j++ {
			hRow[j] *= gr[3*H+j]
		}
	}
}
