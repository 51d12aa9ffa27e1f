//go:build amd64

package nn

// Entry points of the AVX float64 kernels (kernels64_amd64.s). The Go
// wrappers below check the bounds the assembly relies on. dot4AVX and
// axpyAVX take any length (dot4AVX a non-zero one), addClearAVX and
// adamAVX whole vectors only, their remainder running through the Go
// version of the same loop.

//go:noescape
func dot4AVX(acc, w *float64, stride int, x *float64, n int)

//go:noescape
func dot4IdxAVX(acc, w *float64, stride int, x *float64, nz *int32, n int)

//go:noescape
func axpyAVX(a float64, x, y *float64, n int)

//go:noescape
func addClearAVX(dst, src *float64, n int)

//go:noescape
func adamAVX(w, grad, m, v *float64, n int, c *adamCoef)

func init() { avx64 = hasAVX() }

// dot4 is dot4Go; four rows over a non-empty x run as one kernel call.
func dot4(acc, w []float64, stride int, x []float64, nz []int32) {
	if !avx64 || len(acc) != 4 || len(x) == 0 {
		dot4Go(acc, w, stride, x, nz)
		return
	}
	_ = w[3*stride+len(x)-1] // the last element of row 3
	if nz == nil {
		dot4AVX(&acc[0], &w[0], stride, &x[0], len(x))
		return
	}
	if len(nz) == 0 {
		return
	}
	_ = x[nz[len(nz)-1]] // ascending, so the largest index
	dot4IdxAVX(&acc[0], &w[0], stride, &x[0], &nz[0], len(nz))
}

// axpy is axpyGo. It runs once per weight row of a backward pass, so
// its kernel takes the remainder too: one call per row.
func axpy(a float64, x, y []float64) {
	if !avx64 || len(y) == 0 {
		axpyGo(a, x, y)
		return
	}
	axpyAVX(a, &x[:len(y)][0], &y[0], len(y))
}

// addClear is addClearGo.
func addClear(dst, src []float64) {
	src = src[:len(dst)]
	n := 0
	if avx64 {
		if n = len(dst) &^ 3; n > 0 {
			addClearAVX(&dst[0], &src[0], n)
		}
	}
	addClearGo(dst[n:], src[n:])
}

// adam is adamGo.
func adam(w, g, m, v []float64, c *adamCoef) {
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	n := 0
	if avx64 {
		if n = len(w) &^ 3; n > 0 {
			adamAVX(&w[0], &g[0], &m[0], &v[0], n, c)
		}
	}
	adamGo(w[n:], g[n:], m[n:], v[n:], c)
}
