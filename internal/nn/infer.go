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
// with Autoencoder.QuantizeF32; score batches of flattened windows with
// ScoreBatch. Safe for concurrent use with per-goroutine scratches.
type AEInference struct {
	planes   []plane
	inputDim int
	maxPad   int // widest plane output, for scratch sizing
}

// AEBatchScratch is the per-goroutine arena for AEInference.ScoreBatch.
// Activations ping-pong between two buffers sized for the widest layer.
type AEBatchScratch struct {
	a, b []float32
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

// InputDim returns the flattened window dimension the engine expects.
func (e *AEInference) InputDim() int { return e.inputDim }

// NewBatchScratch allocates an empty arena; ScoreBatch grows it to the
// largest batch seen and then reuses it.
func (e *AEInference) NewBatchScratch() *AEBatchScratch { return &AEBatchScratch{} }

// ScoreBatch scores n flattened windows held row-major in xb (row
// stride = InputDim) and writes one score per window into scores[:n].
//
// With recordDim > 0 the score is the worst per-record reconstruction
// MSE (segments of recordDim features), matching MobiWatch's window
// score; with recordDim <= 0 it is the whole-window MSE, matching
// Autoencoder.ScoreWith. The reconstruction is never materialized for
// the caller: the final layer's error pass is fused with the scoring
// reduction. After warm-up the call performs no heap allocation.
func (e *AEInference) ScoreBatch(s *AEBatchScratch, xb []float32, n, recordDim int, scores []float32) {
	if n == 0 {
		return
	}
	if len(xb) < n*e.inputDim {
		panic(fmt.Sprintf("nn: AEInference.ScoreBatch batch %d×%d needs %d floats, got %d",
			n, e.inputDim, n*e.inputDim, len(xb)))
	}
	if len(scores) < n {
		panic(fmt.Sprintf("nn: AEInference.ScoreBatch scores len %d < n %d", len(scores), n))
	}
	s.a = ensureF32(s.a, n*e.maxPad)
	s.b = ensureF32(s.b, n*e.maxPad)

	cur, curStride := xb, e.inputDim
	out := s.a
	for i := range e.planes {
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
	seg := recordDim
	if seg <= 0 {
		seg = e.inputDim
	}
	for m := 0; m < n; m++ {
		recon := cur[m*curStride:]
		in := xb[m*e.inputDim:]
		var worst float32
		for off := 0; off+seg <= e.inputDim; off += seg {
			var sum float32
			for i := off; i < off+seg; i++ {
				d := recon[i] - in[i]
				sum += d * d
			}
			if mse := sum / float32(seg); mse > worst {
				worst = mse
			}
		}
		scores[m] = worst
	}
}

// LSTMInference is an immutable float32 LSTM engine. Build one with
// LSTM.QuantizeF32; score batches of windows with ScoreBatch. Safe for
// concurrent use with per-goroutine scratches.
type LSTMInference struct {
	inDim, hidDim, outDim int

	wx   plane // (4H)×D gate input weights, bias = gate bias
	wh   plane // (4H)×H recurrent weights, bias zero
	head plane // Dout×H projection head
}

// LSTMBatchScratch is the per-goroutine arena for LSTMInference.ScoreBatch.
type LSTMBatchScratch struct {
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

// Dims returns (input, hidden, output) widths.
func (e *LSTMInference) Dims() (in, hidden, out int) { return e.inDim, e.hidDim, e.outDim }

// NewBatchScratch allocates an empty arena; ScoreBatch grows it to the
// largest batch seen and then reuses it.
func (e *LSTMInference) NewBatchScratch() *LSTMBatchScratch { return &LSTMBatchScratch{} }

// ScoreBatch scores n windows of T timesteps each. xb holds the windows
// row-major, each row a flattened window of T·inDim floats (timestep
// t of window m at xb[m·T·inDim + t·inDim:]). targets holds the n
// actual next vectors (row stride outDim). One next-step prediction MSE
// per window is written into scores[:n], matching LSTM.ScoreWith. After
// warm-up the call performs no heap allocation.
//
// Per timestep the whole batch advances through two GEMMs — gate
// pre-activations from the inputs (bias pre-filled) accumulated with the
// recurrent term — followed by one fused elementwise gate/state pass.
func (e *LSTMInference) ScoreBatch(s *LSTMBatchScratch, xb []float32, targets []float32, n, T int, scores []float32) {
	if n == 0 {
		return
	}
	if T <= 0 {
		panic("nn: LSTMInference.ScoreBatch on empty window")
	}
	H := e.hidDim
	rowLen := T * e.inDim
	if len(xb) < n*rowLen {
		panic(fmt.Sprintf("nn: LSTMInference.ScoreBatch batch %d×%d needs %d floats, got %d",
			n, rowLen, n*rowLen, len(xb)))
	}
	if len(targets) < n*e.outDim {
		panic(fmt.Sprintf("nn: LSTMInference.ScoreBatch targets len %d < %d", len(targets), n*e.outDim))
	}
	if len(scores) < n {
		panic(fmt.Sprintf("nn: LSTMInference.ScoreBatch scores len %d < n %d", len(scores), n))
	}
	gp := e.wx.outPad
	hp := e.head.outPad
	s.gates = ensureF32(s.gates, n*gp)
	s.h = ensureF32(s.h, n*H)
	s.c = ensureF32(s.c, n*H)
	s.pred = ensureF32(s.pred, n*hp)
	for i := range s.h {
		s.h[i] = 0
	}
	for i := range s.c {
		s.c[i] = 0
	}

	for t := 0; t < T; t++ {
		e.wx.fillBias(s.gates, n)
		e.wx.gemm(s.gates, gp, xb[t*e.inDim:], rowLen, n)
		e.wh.gemm(s.gates, gp, s.h, H, n)
		// Fused gate pass: gates are stacked i|f|g|o along the row, so
		// the input and forget sigmoids share one vector call, then the
		// state update reuses hRow as scratch for tanh(c) before the
		// output gate scales it.
		for m := 0; m < n; m++ {
			g := s.gates[m*gp : m*gp+4*H]
			cRow := s.c[m*H : (m+1)*H]
			hRow := s.h[m*H : (m+1)*H]
			vsigmoidF32(g[:2*H])   // i|f
			vtanhF32(g[2*H : 3*H]) // g
			vsigmoidF32(g[3*H:])   // o
			for j := 0; j < H; j++ {
				cRow[j] = g[H+j]*cRow[j] + g[j]*g[2*H+j]
			}
			copy(hRow, cRow)
			vtanhF32(hRow)
			for j := 0; j < H; j++ {
				hRow[j] *= g[3*H+j]
			}
		}
	}

	e.head.fillBias(s.pred, n)
	e.head.gemm(s.pred, hp, s.h, H, n)

	// Fused residual-error pass: prediction MSE against the targets.
	for m := 0; m < n; m++ {
		pred := s.pred[m*hp:]
		tgt := targets[m*e.outDim:]
		var sum float32
		for o := 0; o < e.outDim; o++ {
			d := pred[o] - tgt[o]
			sum += d * d
		}
		scores[m] = sum / float32(e.outDim)
	}
}
