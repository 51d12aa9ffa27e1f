package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// kernelValues returns n float64s mixing ordinary values with the ones
// whose rounding is easiest to get wrong: signed zeros, subnormals, and
// magnitudes whose products overflow.
func kernelValues(rng *rand.Rand, n int) []float64 {
	special := []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310, 1e-300, 1e300, -3e307, 1.7976931348623157e308}
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(5) == 0 {
			v[i] = special[rng.Intn(len(special))]
		} else {
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
		}
	}
	return v
}

func sameBits(t *testing.T, what string, n int, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s n=%d: [%d] = %v (%#x), Go %v (%#x)", what, n, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestTrainKernelsAsmMatchGo holds the AVX training kernels to their Go
// versions bit for bit, over every length 0–67 (so every vector tail),
// and then a whole autoencoder and LSTM fit to the same fit on the Go
// versions: the same parameters (==) and the same snapshot bytes.
// Skipped when the host has no AVX.
func TestTrainKernelsAsmMatchGo(t *testing.T) {
	if !avx64 {
		t.Skip("no AVX training kernels on this host")
	}
	rng := rand.New(rand.NewSource(43))
	clone := func(v []float64) []float64 { return append([]float64(nil), v...) }
	for n := 0; n <= 67; n++ {
		stride := n + 3 // rows apart, as a gate's rows are in wx
		w, x := kernelValues(rng, 3*stride+n), kernelValues(rng, n)
		acc := kernelValues(rng, 4)
		var nz []int32
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				nz = append(nz, int32(i))
			}
		}
		for _, idx := range [][]int32{nil, nz, {}} {
			got, want := clone(acc), clone(acc)
			dot4(got, w, stride, x, idx)
			dot4Go(want, w, stride, x, idx)
			sameBits(t, "dot4", n, got, want)
		}

		a := kernelValues(rng, 1)[0]
		y := kernelValues(rng, n)
		got, want := clone(y), clone(y)
		axpy(a, x, got)
		axpyGo(a, x, want)
		sameBits(t, "axpy", n, got, want)

		src := kernelValues(rng, n)
		gotSrc, wantSrc := clone(src), clone(src)
		got, want = clone(y), clone(y)
		addClear(got, gotSrc)
		addClearGo(want, wantSrc)
		sameBits(t, "addClear dst", n, got, want)
		sameBits(t, "addClear src", n, gotSrc, wantSrc)

		g, m, v := kernelValues(rng, n), kernelValues(rng, n), kernelValues(rng, n)
		for i := range v {
			v[i] = math.Abs(v[i]) // a second moment
		}
		c := adamCoef{b1: 0.9, c1: 1 - 0.9, b2: 0.999, c2: 1 - 0.999, bc1: 0.19, bc2: 0.001999, lr: 3e-3, eps: 1e-8}
		gotW, gotM, gotV := clone(y), clone(m), clone(v)
		wantW, wantM, wantV := clone(y), clone(m), clone(v)
		adam(gotW, g, gotM, gotV, &c)
		adamGo(wantW, g, wantM, wantV, &c)
		sameBits(t, "adam w", n, gotW, wantW)
		sameBits(t, "adam m", n, gotM, wantM)
		sameBits(t, "adam v", n, gotV, wantV)
	}

	// Widths off the vector size (10, 7) and on it (16, 8), so both the
	// four-row kernels and the remainders run.
	const dim = 24
	rows := telemetryRows(rand.New(rand.NewSource(44)), 90, dim)
	windows, nexts := slidingWindows(rows, 3)
	cfg := TrainConfig{Epochs: 2, LR: 5e-3, Seed: 7}
	fit := func(t *testing.T, hidden []int, lstmHidden int) (*Autoencoder, *LSTM) {
		ae := NewAutoencoder(AEConfig{InputDim: dim, Hidden: hidden, Seed: 3})
		if _, err := ae.Train(rows, cfg); err != nil {
			t.Fatal(err)
		}
		l := NewLSTM(4, dim, lstmHidden, dim)
		if _, err := l.TrainNextStep(windows, nexts, cfg); err != nil {
			t.Fatal(err)
		}
		return ae, l
	}
	snapshot := func(t *testing.T, m interface{ Snapshot() ([]byte, error) }) []byte {
		b, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, shape := range []struct {
		hidden     []int
		lstmHidden int
	}{{[]int{10, 4}, 7}, {[]int{16, 8}, 8}} {
		ae, l := fit(t, shape.hidden, shape.lstmHidden)
		t.Run("portable", func(t *testing.T) {
			forcePortableKernels(t)
			refAE, refL := fit(t, shape.hidden, shape.lstmHidden)
			sameParams(t, "autoencoder", ae.Params(), refAE.Params())
			sameParams(t, "lstm", l.Params(), refL.Params())
			if !bytes.Equal(snapshot(t, ae), snapshot(t, refAE)) || !bytes.Equal(snapshot(t, l), snapshot(t, refL)) {
				t.Errorf("hidden %v / %d: snapshots differ from the portable fit's", shape.hidden, shape.lstmHidden)
			}
		})
	}
}
