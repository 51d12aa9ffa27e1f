package nn

import (
	"math"
	"math/rand"
	"testing"
)

// sameF32 reports whether two kernel outputs are the same value bit for
// bit, except that a zero may differ in sign: leaving out a +0 term can
// leave a −0 sum where adding it gives +0, and no score observes the
// sign of a zero (each is a mean of squares).
func sameF32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a == 0 && b == 0)
}

// slidingStarts returns every window start of a sliding window of span
// rows over n rows.
func slidingStarts(n, span int) []int {
	starts := make([]int, n-span+1)
	for i := range starts {
		starts[i] = i
	}
	return starts
}

// TestScoreWindowsMatchDenseBitwise holds ScoreWindows to the dense
// reference in every bit of every score, on sliding windows over sparse
// telemetry-shaped rows (every 13th all zero), for batches cut every
// way the online flush can cut them, on the kernels the host selected
// and on the Go ones. The second LSTM's hidden width is a whole number
// of 8-lane groups, so it runs the fused AVX2 cell where there is one.
func TestScoreWindowsMatchDenseBitwise(t *testing.T) {
	ae, l, _, _, _ := trainedPair(t)
	lstms := []*LSTM{l, NewLSTM(11, 8, 16, 8)}
	const dim = 8 // trainedPair's LSTM width; its autoencoder takes 3 rows
	raw := telemetryRows(rand.New(rand.NewSource(7)), 70, dim)
	rows := toRows(raw)

	check := func(t *testing.T) {
		aeEng := ae.QuantizeF32()
		T := aeEng.inputDim / dim
		starts := slidingStarts(len(raw), T)
		want := make([]float32, len(starts))
		xb := make([]float32, 0, len(starts)*aeEng.inputDim)
		for _, st := range starts {
			xb = append(xb, rows.X[st*dim:(st+T)*dim]...)
		}
		aeEng.scoreBatchDense(aeEng.NewBatchScratch(), xb, len(starts), dim, want)
		for _, chunk := range []int{1, 2, 7, 64, len(starts)} {
			got := make([]float32, len(starts))
			s := aeEng.NewBatchScratch()
			for lo := 0; lo < len(starts); lo += chunk {
				hi := min(lo+chunk, len(starts))
				aeEng.ScoreWindows(s, rows, starts[lo:hi], got[lo:hi])
			}
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("ae window %d, batches of %d: %g (%#x), dense %g (%#x)",
						i, chunk, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
			}
		}

		const steps = 4
		starts = slidingStarts(len(raw), steps+1)
		xb, targets := xb[:0], []float32(nil)
		for _, st := range starts {
			xb = append(xb, rows.X[st*dim:(st+steps)*dim]...)
			targets = append(targets, rows.X[(st+steps)*dim:(st+steps+1)*dim]...)
		}
		for _, l := range lstms {
			lEng := l.QuantizeF32()
			want := make([]float32, len(starts))
			lEng.scoreBatchDense(lEng.NewBatchScratch(), xb, targets, len(starts), steps, want)
			for _, chunk := range []int{1, 3, 16, 64, len(starts)} {
				got := make([]float32, len(starts))
				s := lEng.NewBatchScratch()
				for lo := 0; lo < len(starts); lo += chunk {
					hi := min(lo+chunk, len(starts))
					lEng.ScoreWindows(s, rows, starts[lo:hi], steps, got[lo:hi])
				}
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("lstm (hidden %d) window %d, batches of %d: %g (%#x), dense %g (%#x)",
							lEng.hidDim, i, chunk, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
					}
				}
			}
		}
	}
	t.Run(SIMD(), check)
	t.Run("portable", func(t *testing.T) {
		forcePortableKernels(t)
		check(t)
	})
}
