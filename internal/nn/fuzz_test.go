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
