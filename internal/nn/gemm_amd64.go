//go:build amd64

package nn

// Runtime CPU-feature detection for the AVX2+FMA GEMM kernels and the
// AVX training kernels (kernels64_amd64.go). The binary builds for
// baseline amd64 (GOAMD64=v1); the SIMD path is only entered when CPUID
// and XGETBV prove the instructions and OS state support are present, so
// the portable kernels remain the fallback.

// Implemented in gemm_amd64.s.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)
func gemmBlockAVX2(y *float32, yStride int, x *float32, xStride int, wt *float32, wtStride int, n, k int)

//go:noescape
func gemmIdxAVX2(y *float32, x *float32, nz *int32, nnz int, wt *float32, wtStride int)

//go:noescape
func lstmCellAVX2(gates, c, h *float32, hid, n int)

//go:noescape
func vsigmoidAVX2(v *float32, n int)

//go:noescape
func vtanhAVX2(v *float32, n int)

// hasAVX reports whether the CPU and OS support 256-bit AVX: AVX and
// OSXSAVE in CPUID.1:ECX, and XMM+YMM state enabled in XCR0.
func hasAVX() bool {
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	xa, _ := xgetbv()
	return xa&6 == 6 // XMM and YMM state saved by the OS
}

// hasAVX2FMA reports whether the CPU and OS support the GEMM kernels:
// AVX, FMA in CPUID.1:ECX, and AVX2 in CPUID.7:EBX.
func hasAVX2FMA() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 || !hasAVX() {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const fma = 1 << 12
	if ecx1&fma == 0 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// gemmBlockAsm adapts the slice-based kernel signature to the assembly
// entry point.
func gemmBlockAsm(y []float32, yStride int, x []float32, xStride int, wt []float32, wtStride int, n, k int) {
	gemmBlockAVX2(&y[0], yStride, &x[0], xStride, &wt[0], wtStride, n, k)
}

// gemmIdxAsm adapts the index kernel; the block and the listed columns
// are bounds-checked here, since the assembly checks nothing.
func gemmIdxAsm(y []float32, x []float32, nz []int32, wt []float32, wtStride int) {
	_ = y[laneCols-1]
	if len(nz) == 0 {
		return
	}
	last := int(nz[len(nz)-1]) // ascending, so the largest index
	_ = x[last]
	_ = wt[last*wtStride+laneCols-1]
	gemmIdxAVX2(&y[0], &x[0], &nz[0], len(nz), &wt[0], wtStride)
}

// lstmCellAsm runs lstmCellAVX2 where it applies — whole 8-lane groups,
// gate rows packed 4·H apart — and lstmCellGo otherwise.
func lstmCellAsm(g []float32, gStride int, c, h []float32, H, n int) {
	if H <= 0 || H%8 != 0 || gStride != 4*H || n <= 0 {
		lstmCellGo(g, gStride, c, h, H, n)
		return
	}
	_, _, _ = g[n*gStride-1], c[n*H-1], h[n*H-1]
	lstmCellAVX2(&g[0], &c[0], &h[0], H, n)
}

// vsigmoidAsm and vtanhAsm run the 8-lane kernels over the aligned body
// and fall back to the scalar activations for the remainder, so results
// depend only on each element's index, never on the vector's length.
func vsigmoidAsm(v []float32) {
	n := len(v) &^ 7
	if n > 0 {
		vsigmoidAVX2(&v[0], n)
	}
	for i := n; i < len(v); i++ {
		v[i] = sigmoidF32(v[i])
	}
}

func vtanhAsm(v []float32) {
	n := len(v) &^ 7
	if n > 0 {
		vtanhAVX2(&v[0], n)
	}
	for i := n; i < len(v); i++ {
		v[i] = tanhF32(v[i])
	}
}

func init() {
	if hasAVX2FMA() {
		kernelF32 = gemmBlockAsm
		kernelIdxF32 = gemmIdxAsm
		lstmCell = lstmCellAsm
		vsigmoidF32 = vsigmoidAsm
		vtanhF32 = vtanhAsm
		simdKernel = "avx2"
	}
}
