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
	"github.com/6g-xsec/xsec/internal/nn"
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

// benchWindowsF32 encodes the first 64 mixed-trace records the way the
// xApp's worker does and returns n windows of them as one float32 batch
// tensor — the autoencoder's and the LSTM's input alike — with the record
// after each window as the LSTM's target.
func benchWindowsF32(env *bench.Env) (n int, x, targets []float32) {
	m := env.Models
	rows := feature.NewRowBuffer(m.RecordDim())
	e := feature.NewEncoder(m.Vocab)
	for _, r := range env.Mixed.Trace[:64] {
		rows.Push(e, r)
	}
	n = rows.Len() - m.Window // windows with a next record
	for i := 0; i < n; i++ {
		x = rows.AppendWindowF32(x, i, m.Window)
		targets = rows.AppendWindowF32(targets, i+m.Window, 1)
	}
	return n, x, targets
}

// BenchmarkInference_AE measures one autoencoder window score on the
// float32 engine the xApp runs — the pre-filter cost that makes chaining
// a cheap detector before the LLM viable (§3.3).
func BenchmarkInference_AE(b *testing.B) {
	env, err := bench.BuildEnv(benchCfg(b))
	if err != nil {
		b.Fatal(err)
	}
	n, x, _ := benchWindowsF32(env)
	eng := env.Models.Engines().AE
	s, score := eng.NewBatchScratch(), make([]float32, 1)
	w := eng.InputDim()
	eng.ScoreBatch(s, x, 1, env.Models.RecordDim(), score) // grow the scratch arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.ScoreBatch(s, x[i%n*w:], 1, env.Models.RecordDim(), score)
	}
}

// BenchmarkInference_LSTM measures one LSTM next-entry prediction score
// on the float32 engine the xApp runs.
func BenchmarkInference_LSTM(b *testing.B) {
	env, err := bench.BuildEnv(benchCfg(b))
	if err != nil {
		b.Fatal(err)
	}
	n, x, targets := benchWindowsF32(env)
	eng := env.Models.Engines().LSTM
	s, score := eng.NewBatchScratch(), make([]float32, 1)
	dim, N := env.Models.RecordDim(), env.Models.Window
	eng.ScoreBatch(s, x, targets, 1, N, score) // grow the scratch arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % n
		eng.ScoreBatch(s, x[j*N*dim:], targets[j*dim:], 1, N, score)
	}
}

// BenchmarkTraceScoring measures whole-trace window scoring through the
// batched engine the xApp runs.
func BenchmarkTraceScoring(b *testing.B) {
	env, err := bench.BuildEnv(benchCfg(b))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("AE", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out := env.Models.ScoreTraceAEBatched(env.Mixed.Trace, nn.Float32); len(out) == 0 {
				b.Fatal("no windows scored")
			}
		}
	})
	b.Run("LSTM", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out := env.Models.ScoreTraceLSTMBatched(env.Mixed.Trace, nn.Float32); len(out) == 0 {
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
