package nn

// This file is the batched-GEMM core of the fast inference path. Weights
// are stored transposed (in × outPad, outPad a multiple of laneCols) so
// the inner kernel broadcasts one input scalar against contiguous output
// columns — no horizontal reductions — and a batch of W windows becomes
// one matrix-matrix product per layer instead of W GEMVs.
//
// The block kernel computes, per block of laneCols output columns,
//
//	kernelF32: Y[m][0:32] += Σ_k X[m][k] · Wt[k][0:32]
//
// On amd64 with AVX2+FMA (detected at runtime, so the build stays
// GOAMD64=v1) the kernel is assembly (gemm_amd64.s); everywhere else
// the portable Go version below runs. FMA rounds each product-sum once,
// so the two agree to rounding, not bit for bit
// (FuzzGemmBlockAsmMatchesGo bounds the difference).

// laneCols is the kernel's output-column block width. Weight planes pad
// their output dimension up to a multiple of it.
const laneCols = 32

// kernelF32 is the selected block kernel. It is a package variable so
// tests can force the portable version; init in gemm_amd64.go upgrades
// it when the CPU allows.
var kernelF32 = gemmBlockGo

// simdKernel names the active kernel implementation ("avx2" or
// "generic") for benchmark metadata.
var simdKernel = "generic"

// SIMD reports which GEMM kernel implementation is active.
func SIMD() string { return simdKernel }

// gemmBlockGo is the portable float32 block kernel:
// y[m*yStride+o] += Σ_k x[m*xStride+k] · wt[k*wtStride+o] for o in
// [0, laneCols), m in [0, n). The zero-input skip is exact for finite
// weights and pays off on sparse one-hot feature rows.
func gemmBlockGo(y []float32, yStride int, x []float32, xStride int, wt []float32, wtStride int, n, k int) {
	for m := 0; m < n; m++ {
		yrow := y[m*yStride : m*yStride+laneCols : m*yStride+laneCols]
		xrow := x[m*xStride:]
		for kk := 0; kk < k; kk++ {
			xv := xrow[kk]
			if xv == 0 {
				continue
			}
			wrow := wt[kk*wtStride : kk*wtStride+laneCols : kk*wtStride+laneCols]
			for o := 0; o < laneCols; o++ {
				yrow[o] += xv * wrow[o]
			}
		}
	}
}

// padCols rounds an output dimension up to the kernel block width.
func padCols(out int) int {
	return (out + laneCols - 1) / laneCols * laneCols
}

// plane is one float32 dense layer: transposed weights padded to a
// multiple of laneCols output columns, bias, and activation.
type plane struct {
	in, out, outPad int
	act             Activation

	w32  []float32 // in×outPad, transposed: w32[k*outPad+o]
	bias []float32 // outPad, padding zero
}

// newPlane converts one float64 layer (row-major w[o*in+k], bias b) into
// a transposed padded float32 plane.
func newPlane(w, b []float64, in, out int, act Activation) plane {
	p := plane{in: in, out: out, outPad: padCols(out), act: act}
	p.bias = make([]float32, p.outPad)
	for o := 0; o < out; o++ {
		p.bias[o] = float32(b[o])
	}
	p.w32 = make([]float32, in*p.outPad)
	for o := 0; o < out; o++ {
		for k := 0; k < in; k++ {
			p.w32[k*p.outPad+o] = float32(w[o*in+k])
		}
	}
	return p
}

// fillBias broadcasts the bias row into the first n rows of y
// (row stride outPad).
func (p *plane) fillBias(y []float32, n int) {
	for m := 0; m < n; m++ {
		copy(y[m*p.outPad:(m+1)*p.outPad], p.bias)
	}
}

// gemm accumulates X·Wt into y: n rows of x (logical width p.in, row
// stride xStride) against the plane's weights, into n rows of y (row
// stride yStride ≥ p.outPad). Callers pre-fill y — with fillBias for a
// fresh layer, or with a previous gemm's output to chain accumulations.
func (p *plane) gemm(y []float32, yStride int, x []float32, xStride, n int) {
	if n == 0 || p.in == 0 {
		return
	}
	for ob := 0; ob < p.outPad; ob += laneCols {
		kernelF32(y[ob:], yStride, x, xStride, p.w32[ob:], p.outPad, n, p.in)
	}
}

// activate applies the plane's nonlinearity in place over n rows of y.
// Padding columns are written too (cheaper than masking); they are never
// read by later stages, whose k loops stop at the logical width.
func (p *plane) activate(y []float32, n int) {
	total := n * p.outPad
	switch p.act {
	case ActIdentity:
	case ActReLU:
		for i := 0; i < total; i++ {
			if y[i] < 0 {
				y[i] = 0
			}
		}
	case ActSigmoid:
		vsigmoidF32(y[:total])
	case ActTanh:
		vtanhF32(y[:total])
	}
}
