package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"github.com/6g-xsec/xsec/internal/feature"
	"github.com/6g-xsec/xsec/internal/nn"
)

// This file produces the NN performance baseline (BENCH_nn.json): wall-
// clock micro-measurements of the MobiWatch scoring and training hot
// paths, emitted machine-readable so future changes can be compared
// against the committed numbers (`xsec-bench -nn`).

// NNBenchEntry is one measured operation.
type NNBenchEntry struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	Ops     int     `json:"ops"`
}

// NNBenchResult is the machine-readable baseline. The trace_* entries
// time the scalar float64 reference scorers over the whole mixed trace
// (worker pool sized by GOMAXPROCS, inline on one CPU). Batch speedups
// compare the batched GEMM inference engine (per-window ns at the given
// precision) against the scalar float64 window scores — a per-core
// number, independent of GOMAXPROCS.
type NNBenchResult struct {
	GoMaxProcs   int            `json:"gomaxprocs"`
	NumCPU       int            `json:"num_cpu"`
	SIMD         string         `json:"simd"`
	TraceWindows int            `json:"trace_windows"`
	BatchWindows int            `json:"batch_windows"`
	Entries      []NNBenchEntry `json:"entries"`

	BatchSpeedupAE   float64 `json:"ae_batch_f32_speedup"`
	BatchSpeedupLSTM float64 `json:"lstm_batch_f32_speedup"`
	QuantSpeedupAE   float64 `json:"ae_batch_i8_speedup"`
	QuantSpeedupLSTM float64 `json:"lstm_batch_i8_speedup"`
}

// measure times f until at least minTime has elapsed and returns the
// per-op cost, warming up with one untimed call first.
func measure(minTime time.Duration, f func()) NNBenchEntry {
	f()
	var ops int
	var elapsed time.Duration
	batch := 1
	for elapsed < minTime {
		start := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		elapsed += time.Since(start)
		ops += batch
		if batch < 1<<20 {
			batch *= 2
		}
	}
	return NNBenchEntry{NsPerOp: float64(elapsed.Nanoseconds()) / float64(ops), Ops: ops}
}

// batchN is the window-batch size the batched-inference entries score
// per GEMM call, the same order of magnitude as the xApp worker's flush
// size.
const batchN = 32

// RunNNBench builds the cached experiment environment and measures the
// NN hot paths. Smoke mode shrinks the measurement windows so CI can
// exercise every entry in seconds; its numbers are noisier and not
// meant to be committed as the baseline.
func RunNNBench(cfg Config, smoke bool) (*NNBenchResult, error) {
	env, err := BuildEnv(cfg)
	if err != nil {
		return nil, err
	}
	models := env.Models
	vecs := feature.Vectorize(env.Mixed.Trace, models.Vocab)
	wins := feature.WindowsAE(vecs, models.Window)
	winsL, nexts := feature.WindowsLSTM(vecs, models.Window)
	if len(wins) == 0 || len(winsL) == 0 {
		return nil, fmt.Errorf("bench: mixed trace produced no windows")
	}

	res := &NNBenchResult{
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		SIMD:         nn.SIMD(),
		TraceWindows: len(wins),
		BatchWindows: batchN,
	}
	minTime := 200 * time.Millisecond
	if smoke {
		minTime = 20 * time.Millisecond
	}
	add := func(name string, minT time.Duration, f func()) NNBenchEntry {
		e := measure(minT, f)
		e.Name = name
		res.Entries = append(res.Entries, e)
		return e
	}

	scratch := models.NewScoreScratch()
	i := 0
	aeScalar := add("ae_window_score", minTime, func() {
		models.ScoreAEWindowWith(scratch, wins[i%len(wins)])
		i++
	})
	j := 0
	lstmScalar := add("lstm_window_score", minTime, func() {
		models.LSTM.ScoreWith(scratch.LSTM, winsL[j%len(winsL)], nexts[j%len(winsL)])
		j++
	})

	// Batched fast-path inference: one tiled GEMM per layer across a
	// batchN-window tensor with float32 or int8 weights (internal/nn).
	// Entries are normalized to ns per window so they compare directly
	// against the scalar rows above; the *_speedup fields carry the
	// ratio.
	recDim := models.RecordDim()
	eng32 := models.Engines(nn.Float32)
	eng8 := models.Engines(nn.Int8)
	batchScores := make([]float32, batchN)
	addPerWindow := func(name string, f func()) NNBenchEntry {
		e := measure(minTime, f)
		e.NsPerOp /= batchN
		e.Name = name
		res.Entries = append(res.Entries, e)
		return e
	}

	xbAE := make([]float32, 0, batchN*len(wins[0]))
	for m := 0; m < batchN; m++ {
		for _, v := range wins[m%len(wins)] {
			xbAE = append(xbAE, float32(v))
		}
	}
	aeScratch32, aeScratch8 := eng32.AE.NewBatchScratch(), eng8.AE.NewBatchScratch()
	aeF32 := addPerWindow("ae_batch_f32", func() {
		eng32.AE.ScoreBatch(aeScratch32, xbAE, batchN, recDim, batchScores)
	})
	aeI8 := addPerWindow("ae_batch_i8", func() {
		eng8.AE.ScoreBatch(aeScratch8, xbAE, batchN, recDim, batchScores)
	})

	// LSTM batch tensor: window-major, then timestep-major (timestep t
	// of window m at xb[(m*T+t)*recDim:]).
	T := models.Window
	xbL := make([]float32, 0, batchN*T*recDim)
	tgtL := make([]float32, 0, batchN*recDim)
	for m := 0; m < batchN; m++ {
		for _, vec := range winsL[m%len(winsL)] {
			for _, v := range vec {
				xbL = append(xbL, float32(v))
			}
		}
		for _, v := range nexts[m%len(winsL)] {
			tgtL = append(tgtL, float32(v))
		}
	}
	lstmScratch32, lstmScratch8 := eng32.LSTM.NewBatchScratch(), eng8.LSTM.NewBatchScratch()
	lstmF32 := addPerWindow("lstm_batch_f32", func() {
		eng32.LSTM.ScoreBatch(lstmScratch32, xbL, tgtL, batchN, T, batchScores)
	})
	lstmI8 := addPerWindow("lstm_batch_i8", func() {
		eng8.LSTM.ScoreBatch(lstmScratch8, xbL, tgtL, batchN, T, batchScores)
	})
	res.BatchSpeedupAE = aeScalar.NsPerOp / aeF32.NsPerOp
	res.QuantSpeedupAE = aeScalar.NsPerOp / aeI8.NsPerOp
	res.BatchSpeedupLSTM = lstmScalar.NsPerOp / lstmF32.NsPerOp
	res.QuantSpeedupLSTM = lstmScalar.NsPerOp / lstmI8.NsPerOp

	add("trace_ae", minTime, func() { models.ScoreTraceAE(env.Mixed.Trace) })
	add("trace_lstm", minTime, func() { models.ScoreTraceLSTM(env.Mixed.Trace) })

	// One training epoch, sequential vs data-parallel, on the benign
	// window set the models were fitted to.
	trainWins := feature.WindowsAE(feature.Vectorize(env.Benign, models.Vocab), models.Window)
	dim := len(trainWins[0])
	add("ae_train_epoch_sequential", minTime, func() {
		ae := nn.NewAutoencoder(nn.AEConfig{InputDim: dim, Hidden: []int{64, 16}, Seed: 1})
		if _, err := ae.Train(trainWins, nn.TrainConfig{Epochs: 1, Seed: 2, Workers: 1}); err != nil {
			panic(err)
		}
	})
	add("ae_train_epoch_parallel", minTime, func() {
		ae := nn.NewAutoencoder(nn.AEConfig{InputDim: dim, Hidden: []int{64, 16}, Seed: 1})
		if _, err := ae.Train(trainWins, nn.TrainConfig{Epochs: 1, Seed: 2}); err != nil {
			panic(err)
		}
	})
	return res, nil
}

// JSON renders the baseline for BENCH_nn.json.
func (r *NNBenchResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Format renders the baseline as an aligned table.
func (r *NNBenchResult) Format() string {
	rows := make([][]string, 0, len(r.Entries))
	for _, e := range r.Entries {
		rows = append(rows, []string{e.Name, fmt.Sprintf("%.0f", e.NsPerOp), fmt.Sprintf("%d", e.Ops)})
	}
	out := fmt.Sprintf("NN hot-path baseline (GOMAXPROCS=%d, simd=%s, %d trace windows)\n\n",
		r.GoMaxProcs, r.SIMD, r.TraceWindows)
	out += formatTable([]string{"op", "ns/op", "ops"}, rows)
	out += fmt.Sprintf("\nbatched inference speedup per window vs scalar float64 (batch=%d):\n", r.BatchWindows)
	out += fmt.Sprintf("  AE   f32 %.1fx, i8 %.1fx\n", r.BatchSpeedupAE, r.QuantSpeedupAE)
	out += fmt.Sprintf("  LSTM f32 %.1fx, i8 %.1fx\n", r.BatchSpeedupLSTM, r.QuantSpeedupLSTM)
	return out
}
