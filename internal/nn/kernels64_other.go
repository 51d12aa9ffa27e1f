//go:build !amd64

package nn

// Without the amd64 kernels every training loop runs the Go versions.

func dot4(acc, w []float64, stride int, x []float64, nz []int32) { dot4Go(acc, w, stride, x, nz) }
func axpy(a float64, x, y []float64)                             { axpyGo(a, x, y) }
func addClear(dst, src []float64)                                { addClearGo(dst, src) }
func adam(w, g, m, v []float64, c *adamCoef)                     { adamGo(w, g, m, v, c) }
