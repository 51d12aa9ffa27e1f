package nn

import (
	"math/rand"
	"testing"
)

// Micro-benchmarks for the MobiWatch hot path, at the dimensions the
// xApp actually runs (window 4 × ~40-feature records). The parallel
// variants give each goroutine its own scratch over one shared model —
// the deployment shape of concurrent window scoring.
//
//	go test ./internal/nn -bench 'Score|Train' -benchmem

func benchAE() (*Autoencoder, []float64) {
	ae := NewAutoencoder(AEConfig{InputDim: 160, Hidden: []int{64, 16}, Seed: 1})
	x := make([]float64, 160)
	for i := range x {
		x[i] = float64(i%3) * 0.5
	}
	return ae, x
}

func benchLSTM() (*LSTM, [][]float64, []float64) {
	l := NewLSTM(1, 40, 32, 40)
	window := make([][]float64, 4)
	rng := rand.New(rand.NewSource(2))
	for i := range window {
		window[i] = make([]float64, 40)
		for j := range window[i] {
			window[i][j] = rng.NormFloat64() * 0.2
		}
	}
	next := make([]float64, 40)
	return l, window, next
}

func BenchmarkAEScore(b *testing.B) {
	ae, x := benchAE()
	s := ae.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ae.ScoreWith(s, x)
	}
}

func BenchmarkAEScoreParallel(b *testing.B) {
	ae, x := benchAE()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		s := ae.NewScratch()
		for pb.Next() {
			ae.ScoreWith(s, x)
		}
	})
}

func BenchmarkLSTMScore(b *testing.B) {
	l, window, next := benchLSTM()
	s := l.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.ScoreWith(s, window, next)
	}
}

func BenchmarkLSTMScoreParallel(b *testing.B) {
	l, window, next := benchLSTM()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		s := l.NewScratch()
		for pb.Next() {
			l.ScoreWith(s, window, next)
		}
	})
}

// BenchmarkScoreBatch times the float32 batched engines the xApp scores
// through, on a 32-window batch — the order of one worker flush — of
// sliding windows over 35 sparse telemetry-shaped rows. ns/op is per
// batch: divide by 32 to set a row beside BenchmarkAEScore /
// BenchmarkLSTMScore, the scalar float64 reference.
func BenchmarkScoreBatch(b *testing.B) {
	const n, recordDim, T = 32, 40, 4 // benchAE's 160 inputs are 4 records of 40
	ae, _ := benchAE()
	l, _, _ := benchLSTM()
	rows := toRows(telemetryRows(rand.New(rand.NewSource(3)), n+T, recordDim))
	starts := make([]int, n)
	for i := range starts {
		starts[i] = i
	}
	scores := make([]float32, n)

	run := func(name string, score func()) {
		b.Run(name, func(b *testing.B) {
			score() // grow the scratch arena outside the timed loop
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				score()
			}
		})
	}
	aeEng, lEng := ae.QuantizeF32(), l.QuantizeF32()
	aeS, lS := aeEng.NewBatchScratch(), lEng.NewBatchScratch()
	run("ae/f32", func() { aeEng.ScoreWindows(aeS, rows, starts, scores) })
	run("lstm/f32", func() { lEng.ScoreWindows(lS, rows, starts, T, scores) })
}

func benchTrainData() [][]float64 {
	rng := rand.New(rand.NewSource(3))
	return syntheticWindows(rng, 256, 160)
}

func BenchmarkAETrain(b *testing.B) {
	data := benchTrainData()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ae := NewAutoencoder(AEConfig{InputDim: 160, Hidden: []int{64, 16}, Seed: 1})
		if _, err := ae.Train(data, TrainConfig{Epochs: 1, Seed: 2, workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAETrainParallel measures one data-parallel training epoch at
// the session's GOMAXPROCS.
func BenchmarkAETrainParallel(b *testing.B) {
	data := benchTrainData()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ae := NewAutoencoder(AEConfig{InputDim: 160, Hidden: []int{64, 16}, Seed: 1})
		if _, err := ae.Train(data, TrainConfig{Epochs: 1, Seed: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLSTMTrain measures one training epoch at MobiWatch's LSTM
// dimensions on telemetry-shaped rows (one-hot groups and a few reals,
// about one element in six non-zero) — the input the index-list wx pass
// is for; BenchmarkAETrain's syntheticWindows rows are fully dense, the
// list's worst case.
func BenchmarkLSTMTrain(b *testing.B) {
	windows, nexts := slidingWindows(telemetryRows(rand.New(rand.NewSource(4)), 260, 64), 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := NewLSTM(1, 64, 32, 64)
		if _, err := l.TrainNextStep(windows, nexts, TrainConfig{Epochs: 1, Seed: 2, workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
