package nn

import (
	"math"
	"math/rand"
	"testing"
)

// Divergence bounds for the float32 engines against the float64
// reference scorers, checked by the tests below on trained models.
// Float32 loses only rounding (~1e-7 relative per operation, a few µ
// across a layer).
const (
	f32RelBound = 1e-4
	f32AbsBound = 1e-6
)

func scoreDiverged(got float32, want, rel, abs float64) bool {
	d := math.Abs(float64(got) - want)
	return d > abs+rel*math.Abs(want)
}

// forcePortableKernels pins the package to the pure-Go kernels — the
// float32 engines' and the float64 training path's — for the duration of
// a test, restoring the runtime-selected ones after.
func forcePortableKernels(t *testing.T) {
	t.Helper()
	f32, idx, cell := kernelF32, kernelIdxF32, lstmCell
	vs, vt := vsigmoidF32, vtanhF32
	avx := avx64
	kernelF32, kernelIdxF32, lstmCell = gemmBlockGo, gemmIdxGo, lstmCellGo
	vsigmoidF32, vtanhF32 = vsigmoidGo, vtanhGo
	avx64 = false
	t.Cleanup(func() {
		kernelF32, kernelIdxF32, lstmCell = f32, idx, cell
		vsigmoidF32, vtanhF32 = vs, vt
		avx64 = avx
	})
}

// TestGemmKernelAsmMatchesGo proves the SIMD kernel computes the same
// block product as the portable reference, including odd row counts and
// strided inputs. Skipped when the host selected the portable kernels.
func TestGemmKernelAsmMatchesGo(t *testing.T) {
	if SIMD() == "generic" {
		t.Skip("no SIMD kernel selected on this host")
	}
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 2, 3, 5, 16} {
		for _, k := range []int{1, 7, 40, 161} {
			xStride := k + 3 // strided rows, like a timestep slice of a window
			yStride := laneCols + 8
			x := make([]float32, n*xStride)
			for i := range x {
				x[i] = float32(rng.NormFloat64())
			}
			if k > 2 {
				x[2] = 0 // exercise the portable kernel's zero skip
			}
			wtStride := laneCols
			wf := make([]float32, k*wtStride)
			for i := range wf {
				wf[i] = float32(rng.NormFloat64())
			}
			seed := make([]float32, n*yStride)
			for i := range seed {
				seed[i] = float32(rng.NormFloat64())
			}

			want := append([]float32(nil), seed...)
			gemmBlockGo(want, yStride, x, xStride, wf, wtStride, n, k)
			got := append([]float32(nil), seed...)
			kernelF32(got, yStride, x, xStride, wf, wtStride, n, k)
			for i := range want {
				if d := math.Abs(float64(got[i] - want[i])); d > 1e-4 {
					t.Fatalf("n=%d k=%d: y[%d] = %g (asm) vs %g (go)", n, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestVectorActivationsMatchScalar bounds the 8-lane SIMD activations
// against the scalar float32 versions over sweep and saturation inputs,
// including non-multiple-of-8 lengths (scalar tail path). The two may
// legitimately differ by ~1 ulp: the SIMD exp rounds its range-reduction
// step half-to-even and fuses the polynomial with FMA.
func TestVectorActivationsMatchScalar(t *testing.T) {
	if SIMD() == "generic" {
		t.Skip("no SIMD kernel selected on this host")
	}
	var in []float32
	for x := float32(-40); x <= 40; x += 0.0173 {
		in = append(in, x)
	}
	in = append(in, -18, 18, -9.01, 9.01, -0.5, 0.5, 0, 1e-8, -1e-8, 90, -90)
	for _, n := range []int{1, 7, 8, 9, len(in)} {
		vec := append([]float32(nil), in[:n]...)
		vsigmoidF32(vec)
		for i := 0; i < n; i++ {
			want := sigmoidF32(in[i])
			if d := float64(vec[i] - want); d > 2e-7 || d < -2e-7 {
				t.Fatalf("vsigmoid(%g) = %g, scalar %g", in[i], vec[i], want)
			}
		}
		vec = append(vec[:0], in[:n]...)
		vtanhF32(vec)
		for i := 0; i < n; i++ {
			want := tanhF32(in[i])
			if d := float64(vec[i] - want); d > 4e-7 || d < -4e-7 {
				t.Fatalf("vtanh(%g) = %g, scalar %g", in[i], vec[i], want)
			}
		}
	}
}

// TestFastActivations bounds the float32 transcendentals against the
// float64 math package across the ranges the gate pass produces.
func TestFastActivations(t *testing.T) {
	for x := -30.0; x <= 30.0; x += 0.0137 {
		xf := float32(x)
		if got, want := float64(expF32(xf)), math.Exp(float64(xf)); math.Abs(got-want) > 2e-6*math.Abs(want)+1e-38 {
			t.Fatalf("expF32(%g) = %g, want %g", xf, got, want)
		}
		if got, want := float64(tanhF32(xf)), math.Tanh(float64(xf)); math.Abs(got-want) > 2e-6 {
			t.Fatalf("tanhF32(%g) = %g, want %g", xf, got, want)
		}
		if got, want := float64(sigmoidF32(xf)), 1/(1+math.Exp(-float64(xf))); math.Abs(got-want) > 2e-6 {
			t.Fatalf("sigmoidF32(%g) = %g, want %g", xf, got, want)
		}
	}
	// Range edges clamp rather than wrap through the exponent bits.
	if !math.IsInf(float64(expF32(90)), 1) {
		t.Error("expF32(90) should overflow to +Inf")
	}
	if expF32(-90) != 0 {
		t.Error("expF32(-90) should underflow to 0")
	}
	if v := expF32(expMax32); math.IsNaN(float64(v)) || v < 1e38 {
		t.Errorf("expF32 at the overflow edge = %g", v)
	}
	if v := expF32(expMin32); math.IsNaN(float64(v)) || float64(v) > 1e-37 {
		t.Errorf("expF32 at the underflow edge = %g", v)
	}
}

// flattenF32 packs float64 windows row-major into a float32 batch tensor.
func flattenF32(rows [][]float64) []float32 {
	if len(rows) == 0 {
		return nil
	}
	out := make([]float32, 0, len(rows)*len(rows[0]))
	for _, r := range rows {
		for _, v := range r {
			out = append(out, float32(v))
		}
	}
	return out
}

// flattenWindowsF32 packs [][][]float64 LSTM windows into the dense
// reference's layout (window-major, then timestep-major).
func flattenWindowsF32(windows [][][]float64) []float32 {
	var out []float32
	for _, w := range windows {
		for _, step := range w {
			for _, v := range step {
				out = append(out, float32(v))
			}
		}
	}
	return out
}

// toRows packs float64 rows of one width into Rows, listing each row's
// columns whose float32 bit pattern is not zero.
func toRows(rows [][]float64) Rows {
	r := Rows{Dim: len(rows[0]), Off: []int32{0}}
	for _, row := range rows {
		for c, v := range row {
			f := float32(v)
			r.X = append(r.X, f)
			if math.Float32bits(f) != 0 {
				r.Cols = append(r.Cols, int32(c))
			}
		}
		r.Off = append(r.Off, int32(len(r.Cols)))
	}
	return r
}

// aeRows cuts each flat window into records of recDim (recDim ≤ 0: one
// row per window) and returns them as Rows plus every window's start.
func aeRows(flat [][]float64, recDim int) (Rows, []int) {
	if recDim <= 0 {
		recDim = len(flat[0])
	}
	var rows [][]float64
	starts := make([]int, len(flat))
	for m, x := range flat {
		starts[m] = len(rows)
		for off := 0; off < len(x); off += recDim {
			rows = append(rows, x[off:off+recDim])
		}
	}
	return toRows(rows), starts
}

// lstmRows lays each window out as its T rows followed by its next
// vector, and returns them as Rows plus every window's start.
func lstmRows(windows [][][]float64, nexts [][]float64) (Rows, []int) {
	var rows [][]float64
	starts := make([]int, len(windows))
	for m, w := range windows {
		starts[m] = len(rows)
		rows = append(append(rows, w...), nexts[m])
	}
	return toRows(rows), starts
}

// TestAEScoreBatchMatchesFloat64 bounds the batched engine's divergence
// from the float64 reference scorer, on both kernels, for both
// whole-window MSE and the worst-record windowed score.
func TestAEScoreBatchMatchesFloat64(t *testing.T) {
	ae, _, flat, _, _ := trainedPair(t)
	const recDim = 8
	want := make([]float64, len(flat))
	wantRec := make([]float64, len(flat))
	s := ae.NewScratch()
	for i, x := range flat {
		want[i] = ae.ScoreWith(s, x)
		recon := ae.ReconstructWith(s, x)
		for off := 0; off+recDim <= len(x); off += recDim {
			var sum float64
			for j := off; j < off+recDim; j++ {
				d := recon[j] - x[j]
				sum += d * d
			}
			if mse := sum / recDim; mse > wantRec[i] {
				wantRec[i] = mse
			}
		}
	}
	n := len(flat)

	check := func(t *testing.T, e *AEInference, rel, abs float64) {
		bs := e.NewBatchScratch()
		scores := make([]float32, n)
		whole, wholeStarts := aeRows(flat, 0)
		e.ScoreWindows(bs, whole, wholeStarts, scores)
		for i := range scores {
			if scoreDiverged(scores[i], want[i], rel, abs) {
				t.Fatalf("window %d: batch MSE %g, float64 %g (rel bound %g)", i, scores[i], want[i], rel)
			}
		}
		rows, starts := aeRows(flat, recDim)
		e.ScoreWindows(bs, rows, starts, scores)
		for i := range scores {
			if scoreDiverged(scores[i], wantRec[i], rel, abs) {
				t.Fatalf("window %d: batch worst-record %g, float64 %g (rel bound %g)", i, scores[i], wantRec[i], rel)
			}
		}
		// Batch size must not change the arithmetic: one window at a
		// time produces bit-identical scores.
		one := make([]float32, 1)
		for i := 0; i < n; i += 17 {
			e.ScoreWindows(bs, rows, starts[i:i+1], one)
			if one[0] != scores[i] {
				t.Fatalf("window %d: n=1 score %g != batched %g", i, one[0], scores[i])
			}
		}
	}
	t.Run("f32", func(t *testing.T) { check(t, ae.QuantizeF32(), f32RelBound, f32AbsBound) })
	t.Run("f32-portable", func(t *testing.T) {
		forcePortableKernels(t)
		check(t, ae.QuantizeF32(), f32RelBound, f32AbsBound)
	})
}

// TestLSTMScoreBatchMatchesFloat64 is the same contract for the
// recurrent engine.
func TestLSTMScoreBatchMatchesFloat64(t *testing.T) {
	_, l, _, windows, nexts := trainedPair(t)
	s := l.NewScratch()
	want := make([]float64, len(windows))
	for i := range windows {
		want[i] = l.ScoreWith(s, windows[i], nexts[i])
	}
	rows, starts := lstmRows(windows, nexts)
	n, T := len(windows), len(windows[0])

	check := func(t *testing.T, e *LSTMInference, rel, abs float64) {
		bs := e.NewBatchScratch()
		scores := make([]float32, n)
		e.ScoreWindows(bs, rows, starts, T, scores)
		for i := range scores {
			if scoreDiverged(scores[i], want[i], rel, abs) {
				t.Fatalf("window %d: batch score %g, float64 %g (rel bound %g)", i, scores[i], want[i], rel)
			}
		}
		one := make([]float32, 1)
		for i := 0; i < n; i += 13 {
			e.ScoreWindows(bs, rows, starts[i:i+1], T, one)
			if one[0] != scores[i] {
				t.Fatalf("window %d: n=1 score %g != batched %g", i, one[0], scores[i])
			}
		}
	}
	t.Run("f32", func(t *testing.T) { check(t, l.QuantizeF32(), f32RelBound, f32AbsBound) })
	t.Run("f32-portable", func(t *testing.T) {
		forcePortableKernels(t)
		check(t, l.QuantizeF32(), f32RelBound, f32AbsBound)
	})
}

// TestScoreBatchZeroAllocs proves the batched hot path allocates nothing
// in steady state: the scratch arena — activations, the window's index
// list, the input projections — grows once on the first call and is
// reused afterwards.
func TestScoreBatchZeroAllocs(t *testing.T) {
	ae, l, flat, windows, nexts := trainedPair(t)
	scores := make([]float32, len(flat))

	rows, starts := aeRows(flat, 8)
	aeEng := ae.QuantizeF32()
	as := aeEng.NewBatchScratch()
	aeEng.ScoreWindows(as, rows, starts, scores) // warm the arena
	if a := testing.AllocsPerRun(50, func() { aeEng.ScoreWindows(as, rows, starts, scores) }); a != 0 {
		t.Errorf("AEInference.ScoreWindows allocates %v/op, want 0", a)
	}

	lrows, lstarts := lstmRows(windows, nexts)
	T := len(windows[0])
	lEng := l.QuantizeF32()
	ls := lEng.NewBatchScratch()
	lEng.ScoreWindows(ls, lrows, lstarts, T, scores)
	if a := testing.AllocsPerRun(50, func() { lEng.ScoreWindows(ls, lrows, lstarts, T, scores) }); a != 0 {
		t.Errorf("LSTMInference.ScoreWindows allocates %v/op, want 0", a)
	}
}
