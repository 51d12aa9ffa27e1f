package xsec

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§4), plus the ablations and micro-benchmarks DESIGN.md
// commits to. Each heavyweight benchmark reuses the cached experiment
// environment (datasets + trained models), so `go test -bench=.` measures
// the experiment evaluation itself, not repeated dataset generation.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The printed artifacts come from cmd/xsec-bench, which shares this code.

import (
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/bench"
	"github.com/6g-xsec/xsec/internal/core"
	"github.com/6g-xsec/xsec/internal/feature"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/ue"
)

// benchSeed keeps every benchmark on the same cached environment.
const benchSeed = 1001

func benchCfg(b *testing.B) bench.Config {
	b.Helper()
	return bench.Quick(benchSeed)
}

// BenchmarkTable1_Schema renders the telemetry schema (Table 1).
func BenchmarkTable1_Schema(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if out := bench.Table1(); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable2_Detection reproduces Table 2: cross-validated benign
// accuracy and attack-dataset metrics for both models.
func BenchmarkTable2_Detection(b *testing.B) {
	cfg := benchCfg(b)
	if _, err := bench.BuildEnv(cfg); err != nil { // exclude dataset+training
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTable2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.EventRecallAE < 0.999 {
			b.Fatalf("AE event recall = %v", res.EventRecallAE)
		}
	}
}

// BenchmarkTable3_LLMMatrix reproduces Table 3 over the live REST path.
func BenchmarkTable3_LLMMatrix(b *testing.B) {
	cfg := benchCfg(b)
	if _, err := bench.BuildEnv(cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTable3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Score()["chatgpt-4o"] != 6 {
			b.Fatalf("chatgpt-4o score = %d, want 6", res.Score()["chatgpt-4o"])
		}
	}
}

// BenchmarkFigure2_Sequences regenerates the attack message sequences.
func BenchmarkFigure2_Sequences(b *testing.B) {
	cfg := benchCfg(b)
	if _, err := bench.BuildEnv(cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4_Reconstruction regenerates the reconstruction-error
// series over the attack dataset.
func BenchmarkFigure4_Reconstruction(b *testing.B) {
	cfg := benchCfg(b)
	if _, err := bench.BuildEnv(cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFigure4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Points) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkFigure5_PromptResponse renders the prompt template and the
// analyst response for a BTS DoS window.
func BenchmarkFigure5_PromptResponse(b *testing.B) {
	cfg := benchCfg(b)
	if _, err := bench.BuildEnv(cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Figure5(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_WindowSize sweeps the sliding-window size.
func BenchmarkAblation_WindowSize(b *testing.B) {
	cfg := benchCfg(b)
	if _, err := bench.BuildEnv(cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationWindowSize(cfg, []int{2, 4, 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Threshold sweeps the detection percentile.
func BenchmarkAblation_Threshold(b *testing.B) {
	cfg := benchCfg(b)
	if _, err := bench.BuildEnv(cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationThreshold(cfg, []float64{99, 95, 90}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_Bottleneck sweeps the autoencoder bottleneck width.
func BenchmarkAblation_Bottleneck(b *testing.B) {
	cfg := benchCfg(b)
	if _, err := bench.BuildEnv(cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.AblationBottleneck(cfg, []int{8, 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInference_AE measures one autoencoder window score — the
// pre-filter cost that makes chaining a cheap detector before the LLM
// viable (§3.3).
func BenchmarkInference_AE(b *testing.B) {
	env, err := bench.BuildEnv(benchCfg(b))
	if err != nil {
		b.Fatal(err)
	}
	vecs := feature.Vectorize(env.Mixed.Trace[:64], env.Models.Vocab)
	wins := feature.WindowsAE(vecs, env.Models.Window)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env.Models.ScoreAEWindow(wins[i%len(wins)])
	}
}

// BenchmarkInference_LSTM measures one LSTM next-entry prediction score.
func BenchmarkInference_LSTM(b *testing.B) {
	env, err := bench.BuildEnv(benchCfg(b))
	if err != nil {
		b.Fatal(err)
	}
	vecs := feature.Vectorize(env.Mixed.Trace[:64], env.Models.Vocab)
	wins, nexts := feature.WindowsLSTM(vecs, env.Models.Window)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(wins)
		env.Models.LSTM.Score(wins[j], nexts[j])
	}
}

// BenchmarkTraceScoring measures whole-trace window scoring through the
// scalar float64 reference scorers (worker pool sized by GOMAXPROCS,
// inline on one CPU).
func BenchmarkTraceScoring(b *testing.B) {
	env, err := bench.BuildEnv(benchCfg(b))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("AE", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out := env.Models.ScoreTraceAE(env.Mixed.Trace); len(out) == 0 {
				b.Fatal("no windows scored")
			}
		}
	})
	b.Run("LSTM", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out := env.Models.ScoreTraceLSTM(env.Mixed.Trace); len(out) == 0 {
				b.Fatal("no windows scored")
			}
		}
	})
}

// BenchmarkE2Loop_Latency measures the live control-loop latency from
// attack traffic hitting the gNB to the MobiWatch alert emerging at the
// RIC — the path that must fit the 10 ms – 1 s near-RT budget (§2.1).
func BenchmarkE2Loop_Latency(b *testing.B) {
	fw, err := core.New(core.Options{
		Seed:         benchSeed,
		ReportPeriod: 5 * time.Millisecond,
		TrainOpts:    mobiwatch.TrainOptions{Epochs: 10, Seed: benchSeed},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer fw.Close()
	benign, err := fw.CollectBenign(30)
	if err != nil {
		b.Fatal(err)
	}
	if err := fw.Train(benign); err != nil {
		b.Fatal(err)
	}
	if err := fw.DeployXApps(); err != nil {
		b.Fatal(err)
	}
	attacker := fw.NewUE(ue.OAIUE, 999)
	attacker.Pace = func() { fw.Clock().Advance(500 * time.Microsecond) }

	// Drain cases continuously so the pump never blocks.
	go func() {
		for range fw.Cases() {
		}
	}()

	alertCount := func() uint64 {
		st := fw.WatchStats()
		return st.AlertsRaised.Load() + st.AlertsDropped.Load()
	}
	b.ResetTimer()
	var total time.Duration
	for i := 0; i < b.N; i++ {
		before := alertCount()
		start := time.Now()
		res, err := attacker.RunBTSDoS(fw.GNB, 4)
		if err != nil {
			b.Fatal(err)
		}
		for alertCount() == before {
			time.Sleep(200 * time.Microsecond)
		}
		total += time.Since(start)
		// Inactivity cleanup so leaked contexts do not accumulate
		// across iterations.
		b.StopTimer()
		for _, id := range res.UEIDs {
			fw.GNB.ReleaseUE(id)
			fw.AMF.ReleaseUE(id)
		}
		fw.Clock().Advance(2 * time.Second)
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "ms/alert")
}
