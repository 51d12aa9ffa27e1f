package nn

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzFloats decodes n finite float32 values from data, cycling through
// it four bytes at a time. A non-finite or huge bit pattern becomes a
// small value instead, so sums of products stay finite and the portable
// kernel's zero skip stays exact; all-zero bytes give exact zeros.
func fuzzFloats(data []byte, off, n int) []float32 {
	out := make([]float32, n)
	if len(data) < 4 {
		return out
	}
	for i := range out {
		j := (off + 4*i) % (len(data) - 3)
		bits := binary.LittleEndian.Uint32(data[j:])
		v := math.Float32frombits(bits)
		if a := math.Abs(float64(v)); math.IsNaN(a) || a > 1e15 {
			v = float32(int8(bits)) / 8
		}
		out[i] = v
	}
	return out
}

// FuzzGemmBlockAsmMatchesGo holds the SIMD kernels to their Go twins on
// fuzzed shapes, strides and values: gemmBlockAsm against gemmBlockGo,
// and vsigmoidAsm / vtanhAsm against vsigmoidGo / vtanhGo, each reached
// through the package variable init selected it into. FMA rounds
// each product-sum once where the Go loop rounds the product and the sum
// separately, so an output may differ by a few units of rounding of
// Σ|x·w| (plus the seeded accumulator) over the k steps — the bound
// scales with that magnitude, not with the possibly cancelled result.
func FuzzGemmBlockAsmMatchesGo(f *testing.F) {
	if SIMD() == "generic" {
		f.Skip("no SIMD kernel selected on this host")
	}
	f.Add(uint8(3), uint8(40), uint8(3), uint8(8), uint8(0), []byte{0, 0, 128, 63, 0, 0, 0, 0, 205, 204, 76, 190, 0, 0, 32, 65})
	f.Add(uint8(16), uint8(161), uint8(0), uint8(0), uint8(32), []byte("\x01\x02\x03\x04\xff\xfe\xfd\x7f\x00\x00\x80\x00"))
	f.Add(uint8(1), uint8(1), uint8(15), uint8(15), uint8(15), []byte{1, 0, 0, 128, 0, 0, 128, 255})
	f.Fuzz(func(t *testing.T, nb, kb, xPad, yPad, wPad uint8, data []byte) {
		n, k := 1+int(nb)%17, 1+int(kb)%200
		xStride := k + int(xPad)%16
		yStride := laneCols + int(yPad)%16
		wtStride := laneCols + int(wPad)%40
		x := fuzzFloats(data, 0, (n-1)*xStride+k)
		wt := fuzzFloats(data, 1, (k-1)*wtStride+laneCols)
		seed := fuzzFloats(data, 2, (n-1)*yStride+laneCols)

		want := append([]float32(nil), seed...)
		gemmBlockGo(want, yStride, x, xStride, wt, wtStride, n, k)
		got := append([]float32(nil), seed...)
		kernelF32(got, yStride, x, xStride, wt, wtStride, n, k)
		const u = 0x1p-24 // float32 unit roundoff
		for m := 0; m < n; m++ {
			for o := 0; o < yStride && m*yStride+o < len(got); o++ {
				i := m*yStride + o
				if o >= laneCols {
					if got[i] != seed[i] || want[i] != seed[i] {
						t.Fatalf("n=%d k=%d: y[%d] outside the block was written", n, k, i)
					}
					continue
				}
				mag := math.Abs(float64(seed[i]))
				for kk := 0; kk < k; kk++ {
					mag += math.Abs(float64(x[m*xStride+kk]) * float64(wt[kk*wtStride+o]))
				}
				bound := 3*float64(k+1)*u*mag + float64(k+1)*0x1p-149
				if d := math.Abs(float64(got[i]) - float64(want[i])); d > bound {
					t.Fatalf("n=%d k=%d strides x%d y%d w%d: y[%d] = %g (asm) vs %g (go), |Δ| %g > %g",
						n, k, xStride, yStride, wtStride, i, got[i], want[i], d, bound)
				}
			}
		}

		// The activations take the same values as one vector, so both
		// the 8-lane body and the scalar tail are exercised.
		for _, act := range []struct {
			name     string
			asm, ref func([]float32)
			bound    float64
		}{
			{"sigmoid", vsigmoidF32, vsigmoidGo, 2e-7},
			{"tanh", vtanhF32, vtanhGo, 4e-7},
		} {
			a := append([]float32(nil), x...)
			r := append([]float32(nil), x...)
			act.asm(a)
			act.ref(r)
			for i := range a {
				if d := math.Abs(float64(a[i]) - float64(r[i])); !(d <= act.bound) {
					t.Fatalf("v%s(%g) = %g (asm) vs %g (go)", act.name, x[i], a[i], r[i])
				}
			}
		}
	})
}

// fuzzFinite decodes n float32 values from data like fuzzFloats, but
// keeps every finite bit pattern — signed zeros, subnormals and values
// whose products overflow — and maps only NaN and ±Inf to small values.
func fuzzFinite(data []byte, off, n int) []float32 {
	out := make([]float32, n)
	if len(data) < 4 {
		return out
	}
	for i := range out {
		j := (off + 4*i) % (len(data) - 3)
		bits := binary.LittleEndian.Uint32(data[j:])
		v := math.Float32frombits(bits)
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			v = float32(int8(bits)) / 8
		}
		out[i] = v
	}
	return out
}

// FuzzGemmIndexMatchesDense holds the index kernel to the block kernel
// it stands in for, on one row of fuzzed length, weight stride, values
// and zero pattern: given the same x, listing the columns whose bits are
// not zero (so a −0 is listed) must give the block kernel's bits, up to
// the sign of a zero sum (sameF32) — Go against Go always, and the
// selected SIMD kernels against each other where the host has them. The
// fused LSTM cell is held to lstmCellGo the same way, bit for bit, on
// fuzzed gates and cell state.
func FuzzGemmIndexMatchesDense(f *testing.F) {
	negZero, subnormal, huge := []byte{0, 0, 0, 0x80}, []byte{1, 0, 0, 0}, []byte{0xff, 0xff, 0x7f, 0x7f}
	f.Add(uint8(40), uint8(0), uint64(0xf0f0f0f0f0f0f0f0), uint8(0), append(append(append([]byte{0, 0, 128, 63}, negZero...), subnormal...), huge...))
	f.Add(uint8(199), uint8(39), uint64(0x5555555555555555), uint8(3), []byte("\x01\x02\x03\x04\xff\xfe\xfd\x7f\x00\x00\x80\x00"))
	f.Add(uint8(0), uint8(7), uint64(0), uint8(1), []byte{0, 0, 0, 0x80, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, kb, wPad uint8, zeros uint64, shape uint8, data []byte) {
		k := 1 + int(kb)%200
		wtStride := laneCols + int(wPad)%40
		x := fuzzFinite(data, 0, k)
		var nz []int32
		for i := range x {
			if zeros>>(i%64)&1 == 1 {
				x[i] = 0
			}
			if math.Float32bits(x[i]) != 0 {
				nz = append(nz, int32(i))
			}
		}
		wt := fuzzFinite(data, 1, (k-1)*wtStride+laneCols)
		seed := fuzzFinite(data, 2, laneCols)

		type pair struct {
			name  string
			dense func(y []float32, yStride int, x []float32, xStride int, wt []float32, wtStride int, n, k int)
			idx   func(y []float32, x []float32, nz []int32, wt []float32, wtStride int)
		}
		pairs := []pair{{"go", gemmBlockGo, gemmIdxGo}}
		if SIMD() != "generic" {
			pairs = append(pairs, pair{SIMD(), kernelF32, kernelIdxF32})
		}
		for _, p := range pairs {
			want := append([]float32(nil), seed...)
			p.dense(want, laneCols, x, k, wt, wtStride, 1, k)
			got := append([]float32(nil), seed...)
			p.idx(got, x, nz, wt, wtStride)
			for o := range want {
				if !sameF32(got[o], want[o]) {
					t.Fatalf("%s k=%d stride %d, %d listed: y[%d] = %g (%#x) indexed, %g (%#x) dense",
						p.name, k, wtStride, len(nz), o, got[o], math.Float32bits(got[o]), want[o], math.Float32bits(want[o]))
				}
			}
		}

		// The cell: hidden width a whole number of 8-lane groups, so the
		// SIMD kernel runs where there is one; gates and state from the
		// same bytes.
		H, n := 8*(1+int(shape)%4), 1+int(shape>>2)%4
		g := fuzzFinite(data, 3, n*4*H)
		c := fuzzFinite(data, 5, n*H)
		gotG, gotC, gotH := append([]float32(nil), g...), append([]float32(nil), c...), make([]float32, n*H)
		wantG, wantC, wantH := append([]float32(nil), g...), append([]float32(nil), c...), make([]float32, n*H)
		lstmCell(gotG, 4*H, gotC, gotH, H, n)
		lstmCellGo(wantG, 4*H, wantC, wantH, H, n)
		for i := range wantC {
			if math.Float32bits(gotC[i]) != math.Float32bits(wantC[i]) || math.Float32bits(gotH[i]) != math.Float32bits(wantH[i]) {
				t.Fatalf("cell H=%d n=%d [%d]: c %g h %g, Go c %g h %g", H, n, i, gotC[i], gotH[i], wantC[i], wantH[i])
			}
		}
	})
}

// FuzzTrainKernelsAsmMatchGo holds the training kernels — dot4 dense and
// over an index list, axpy, addClear, adam — to their Go twins bit for
// bit, on fuzzed lengths, row strides, zero patterns and finite values
// (overflowing products included). TestTrainKernelsAsmMatchGo pins the
// same on lengths 0–67; this searches the rest. Skipped without AVX.
func FuzzTrainKernelsAsmMatchGo(f *testing.F) {
	if !avx64 {
		f.Skip("no AVX training kernels on this host")
	}
	f.Add(uint8(13), uint8(3), uint64(0x9249249249249249), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(130), uint8(0), uint64(0), []byte("\x01\x00\x00\x00\x00\x00\x00\x00\xff\xff\xff\xff\xff\xff\xef\x7f"))
	f.Add(uint8(4), uint8(17), uint64(1), []byte{0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xb9, 0x3f})
	f.Fuzz(func(t *testing.T, nb, pad uint8, zeros uint64, data []byte) {
		n := int(nb) % 131
		stride := n + int(pad)%9
		vals := func(off, count int) []float64 {
			out := make([]float64, count)
			if len(data) < 8 {
				return out
			}
			for i := range out {
				j := (off + 8*i) % (len(data) - 7)
				bits := binary.LittleEndian.Uint64(data[j:])
				v := math.Float64frombits(bits)
				if math.IsNaN(v) || math.IsInf(v, 0) {
					v = float64(int16(bits)) / 64
				}
				out[i] = v
			}
			return out
		}
		clone := func(v []float64) []float64 { return append([]float64(nil), v...) }
		w, x, acc := vals(0, 3*stride+n), vals(1, n), vals(2, 4)
		var nz []int32
		for i := range x {
			if zeros>>(i%64)&1 == 1 {
				x[i] = 0
			} else {
				nz = append(nz, int32(i))
			}
		}
		for _, idx := range [][]int32{nil, nz} {
			got, want := clone(acc), clone(acc)
			dot4(got, w, stride, x, idx)
			dot4Go(want, w, stride, x, idx)
			sameBits(t, "dot4", n, got, want)
		}

		a := vals(3, 1)[0]
		y := vals(4, n)
		got, want := clone(y), clone(y)
		axpy(a, x, got)
		axpyGo(a, x, want)
		sameBits(t, "axpy", n, got, want)

		src := vals(5, n)
		gotSrc, wantSrc := clone(src), clone(src)
		got, want = clone(y), clone(y)
		addClear(got, gotSrc)
		addClearGo(want, wantSrc)
		sameBits(t, "addClear dst", n, got, want)
		sameBits(t, "addClear src", n, gotSrc, wantSrc)

		g, m, v := vals(6, n), vals(7, n), vals(8, n)
		for i := range v {
			v[i] = math.Abs(v[i]) // a second moment
		}
		k := vals(9, 4)
		b1, b2 := math.Abs(math.Mod(k[0], 1)), math.Abs(math.Mod(k[1], 1))
		c := adamCoef{b1: b1, c1: 1 - b1, b2: b2, c2: 1 - b2, bc1: 1 - b1*b1, bc2: 1 - b2*b2, lr: k[2], eps: math.Abs(k[3]) + 1e-12}
		gotW, gotM, gotV := clone(y), clone(m), clone(v)
		wantW, wantM, wantV := clone(y), clone(m), clone(v)
		adam(gotW, g, gotM, gotV, &c)
		adamGo(wantW, g, wantM, wantV, &c)
		sameBits(t, "adam w", n, gotW, wantW)
		sameBits(t, "adam m", n, gotM, wantM)
		sameBits(t, "adam v", n, gotV, wantV)
	})
}
