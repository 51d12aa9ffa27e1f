package nn_test

import (
	"math"
	"testing"

	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/feature"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/nn"
)

// TestFixtureScoresMatchDenseReference holds every window score of the
// shipped scorer — mobiwatch's ScoreTrace*Batched, sparse rows read in
// place, one LSTM projection per row — to the dense reference over the
// same windows copied into a tensor, by math.Float32bits equality, on the
// MobiWatch test fixture's bundle and its benign and mixed traces: on the
// kernels the host selected and on the Go ones.
func TestFixtureScoresMatchDenseReference(t *testing.T) {
	benign, err := dataset.GenerateBenign(dataset.BenignConfig{Sessions: 60, Fleet: 10, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := dataset.GenerateMixed(dataset.MixedConfig{
		BenignConfig:       dataset.BenignConfig{Fleet: 8, Seed: 22},
		InstancesPerAttack: 1,
		BenignBetween:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	models, err := mobiwatch.Train(benign, mobiwatch.TrainOptions{Epochs: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	N, dim := models.Window, models.RecordDim()
	eng := models.Engines()

	check := func(t *testing.T) {
		for _, tr := range []struct {
			name     string
			trace    mobiflow.Trace
			ae, lstm int // windows each model scores
		}{{"benign", benign, 907, 906}, {"mixed", mixed.Trace, 301, 300}} {
			var rows []float32
			for _, v := range feature.Vectorize(tr.trace, models.Vocab) {
				for _, f := range v {
					rows = append(rows, float32(f))
				}
			}
			nRows := len(rows) / dim

			got := models.ScoreTraceAEBatched(tr.trace, nn.Float32)
			want := make([]float32, nRows-N+1)
			eng.AE.ScoreBatchDense(eng.AE.NewBatchScratch(), denseWindows(rows, dim, N, len(want)), len(want), dim, want)
			same(t, tr.name+" autoencoder", got, want, tr.ae)

			got = models.ScoreTraceLSTMBatched(tr.trace, nn.Float32)
			want = make([]float32, nRows-N)
			xb := denseWindows(rows, dim, N, len(want))
			targets := rows[N*dim:]
			eng.LSTM.ScoreBatchDense(eng.LSTM.NewBatchScratch(), xb, targets, len(want), N, want)
			same(t, tr.name+" lstm", got, want, tr.lstm)
		}
	}
	t.Run(nn.SIMD(), check)
	t.Run("portable", func(t *testing.T) {
		nn.ForcePortableKernels(t)
		check(t)
	})
}

// denseWindows copies n sliding windows of N rows out of rows, one after
// another, as the dense reference takes them.
func denseWindows(rows []float32, dim, N, n int) []float32 {
	out := make([]float32, 0, n*N*dim)
	for i := 0; i < n; i++ {
		out = append(out, rows[i*dim:(i+N)*dim]...)
	}
	return out
}

func same(t *testing.T, what string, got []mobiwatch.WindowScore, want []float32, windows int) {
	t.Helper()
	if len(got) != windows || len(want) != windows {
		t.Fatalf("%s: %d windows scored, %d in the reference, want %d", what, len(got), len(want), windows)
	}
	for i, w := range got {
		if g := float32(w.Score); math.Float32bits(g) != math.Float32bits(want[i]) {
			t.Fatalf("%s window %d: %g (%#x), dense reference %g (%#x)", what, i, g, math.Float32bits(g), want[i], math.Float32bits(want[i]))
		}
	}
}
