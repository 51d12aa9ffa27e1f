package nn

import "fmt"

// This file keeps the dense float32 scoring path the engines ran before
// they took sparse rows: every window copied into a batch tensor, the
// autoencoder's first plane a dense GEMM over all of its inputs, and the
// LSTM projecting each window's inputs at every step and running the
// recurrent GEMM at step 0 against h = 0. It is the bitwise reference
// for ScoreWindows: the two must agree in every bit of every score, on
// the assembly kernels and on the Go ones.

// scoreBatchDense scores n flattened windows held row-major in xb (row
// stride = InputDim) into scores[:n]: with recordDim > 0 the worst
// per-record reconstruction MSE, else the whole-window MSE.
func (e *AEInference) scoreBatchDense(s *AEBatchScratch, xb []float32, n, recordDim int, scores []float32) {
	if n == 0 {
		return
	}
	if len(xb) < n*e.inputDim {
		panic(fmt.Sprintf("nn: scoreBatchDense batch %d×%d needs %d floats, got %d",
			n, e.inputDim, n*e.inputDim, len(xb)))
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

// scoreBatchDense scores n windows of T timesteps held row-major in xb
// (window m's step t at xb[m·T·inDim + t·inDim:]) against the n next
// vectors in targets (row stride outDim), one MSE per window.
func (e *LSTMInference) scoreBatchDense(s *LSTMBatchScratch, xb []float32, targets []float32, n, T int, scores []float32) {
	if n == 0 {
		return
	}
	H := e.hidDim
	rowLen := T * e.inDim
	if len(xb) < n*rowLen || len(targets) < n*e.outDim {
		panic(fmt.Sprintf("nn: scoreBatchDense batch of %d windows needs %d inputs and %d targets, got %d and %d",
			n, n*rowLen, n*e.outDim, len(xb), len(targets)))
	}
	gp := e.wx.outPad
	hp := e.head.outPad
	s.gates = ensureF32(s.gates, n*gp)
	s.h = ensureF32(s.h, n*H)
	s.c = ensureF32(s.c, n*H)
	s.pred = ensureF32(s.pred, n*hp)
	clear(s.h)
	clear(s.c)

	for t := 0; t < T; t++ {
		e.wx.fillBias(s.gates, n)
		e.wx.gemm(s.gates, gp, xb[t*e.inDim:], rowLen, n)
		e.wh.gemm(s.gates, gp, s.h, H, n)
		for m := 0; m < n; m++ {
			g := s.gates[m*gp : m*gp+4*H]
			cRow := s.c[m*H : (m+1)*H]
			hRow := s.h[m*H : (m+1)*H]
			vsigmoidF32(g[:2*H])
			vtanhF32(g[2*H : 3*H])
			vsigmoidF32(g[3*H:])
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
