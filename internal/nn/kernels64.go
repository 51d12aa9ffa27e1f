package nn

import "math"

// This file holds the float64 element loops of the training path — the
// dot products of Dense.forward and LSTM.ForwardWith, the y += a·x rows
// of the backward passes, the shard reduction and the Adam update — as
// small kernels. On amd64 with AVX (detected at run time) they run as
// assembly in kernels64_amd64.s; everywhere else, and in the tests as
// the reference, the Go versions below run.
//
// The two compute the same bits. A vector lane performs exactly the
// operations the Go loop performs on that element, in the same order,
// each rounded on its own (VMULPD then VADDPD, never FMA), and Go on
// amd64 does not fuse x*y+z below GOAMD64=v3. So a kernel only changes
// how many elements are in flight, never a sum's operands or their
// order: a dot product keeps one accumulator per row and runs it in
// index order, four rows side by side. Sums that could only be
// vectorised by reordering them (the clip norm, MSE) stay in plain Go.

// avx64 selects the assembly kernels. It is set once by init on amd64
// hosts with AVX; tests clear it to run the Go versions.
var avx64 bool

// dot4Go adds Σ_i w[r·stride+i]·x[i] into acc[r] for each row
// r < len(acc) ≤ 4, over every i < len(x) when nz is nil and over the
// ascending indices in nz otherwise — each row in index order.
func dot4Go(acc, w []float64, stride int, x []float64, nz []int32) {
	for r := range acc {
		// Sliced to len(x), so that an index checked against one of row
		// and x is known to be inside the other.
		row := w[r*stride:][:len(x)]
		sum := acc[r]
		if nz != nil {
			for _, i := range nz {
				sum += row[i] * x[i]
			}
		} else {
			for i, xi := range x {
				sum += row[i] * xi
			}
		}
		acc[r] = sum
	}
}

// axpyGo computes y[i] += a·x[i] for i < len(y); len(x) ≥ len(y).
func axpyGo(a float64, x, y []float64) {
	x = x[:len(y)]
	for i := range y {
		y[i] += a * x[i]
	}
}

// addClearGo computes dst[i] += src[i] and then zeroes src[i], for
// i < len(dst); len(src) ≥ len(dst).
func addClearGo(dst, src []float64) {
	src = src[:len(dst)]
	for i := range dst {
		dst[i] += src[i]
		src[i] = 0
	}
}

// adamCoef is one Adam step's scalars: c1 = 1-b1 and c2 = 1-b2 are the
// moment weights, bc1 and bc2 the bias corrections.
type adamCoef struct {
	b1, c1, b2, c2, bc1, bc2, lr, eps float64
}

// adamGo applies one Adam update to w from g, advancing the moments m
// and v, for every i < len(w); g, m and v are at least as long.
func adamGo(w, g, m, v []float64, c *adamCoef) {
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	for i := range w {
		gi := g[i]
		m[i] = c.b1*m[i] + c.c1*gi
		v[i] = c.b2*v[i] + c.c2*gi*gi
		mh := m[i] / c.bc1
		vh := v[i] / c.bc2
		w[i] -= c.lr * mh / (math.Sqrt(vh) + c.eps)
	}
}
