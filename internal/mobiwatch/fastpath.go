package mobiwatch

import (
	"github.com/6g-xsec/xsec/internal/feature"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/nn"
	"github.com/6g-xsec/xsec/internal/prov"
)

// This file is the one scoring path: the online xApp, Train's threshold
// calibration and the offline ScoreTrace*Batched entry points all score
// through it. Instead of scoring each window as its completing record
// arrives (one GEMV per layer per window), records are encoded straight
// into a float32 row buffer, completed windows are appended to a pending
// batch tensor, and the whole batch is scored with one tiled GEMM per
// layer. The float64 models and their training are untouched; the
// float64 forward pass is the reference the tests bound this path by.

// FastEngines bundles the float32 batched engines for one model bundle.
// Engines are immutable and safe for concurrent use with per-worker
// scratches.
type FastEngines struct {
	AE   *nn.AEInference
	LSTM *nn.LSTMInference
}

// Engines returns the bundle's inference engines, building them on first
// use and caching them for every later caller (workers across shards and
// xApp instances share one engine pair). Engines built from a bundle do
// not follow later retraining.
func (m *Models) Engines() *FastEngines {
	build := func() *FastEngines {
		return &FastEngines{AE: m.AE.QuantizeF32(), LSTM: m.LSTM.QuantizeF32()}
	}
	c := m.engines
	if c == nil {
		// Hand-constructed bundle without a cache: build uncached.
		return build()
	}
	c.once.Do(func() { c.e = build() })
	return c.e
}

// pendingBatch is one model's batch of windows awaiting a single batched
// scoring pass: the window tensor, the LSTM's next-vector targets, and
// the engine scratch. The online worker and the offline
// ScoreTrace*Batched scorers fill and score the same type, so an offline
// evaluation runs the shipped scoring path by construction. Not safe for
// concurrent use; each owner allocates its own.
type pendingBatch struct {
	model  ModelName
	eng    *FastEngines
	window int // N
	dim    int // per-record feature dimension

	n       int       // windows pushed since the last reset
	x       []float32 // n windows, each window×dim
	targets []float32 // LSTM only: n next vectors, each dim
	scores  []float32

	aeScratch   *nn.AEBatchScratch   // ModelAE only
	lstmScratch *nn.LSTMBatchScratch // ModelLSTM only
}

func newPendingBatch(m *Models, model ModelName) *pendingBatch {
	b := &pendingBatch{model: model, eng: m.Engines(), window: m.Window, dim: m.RecordDim()}
	if model == ModelLSTM {
		b.lstmScratch = b.eng.LSTM.NewBatchScratch()
	} else {
		b.aeScratch = b.eng.AE.NewBatchScratch()
	}
	return b
}

// span is how many records one window covers: the N inputs, plus the
// predicted record for the LSTM.
func (b *pendingBatch) span() int {
	if b.model == ModelLSTM {
		return b.window + 1
	}
	return b.window
}

// push appends the window starting at row start — and, for the LSTM, the
// row after it as the prediction target. One contiguous copy per window,
// no allocation in steady state.
func (b *pendingBatch) push(rows *feature.RowBuffer, start int) {
	b.x = rows.AppendWindowF32(b.x, start, b.window)
	if b.model == ModelLSTM {
		b.targets = rows.AppendWindowF32(b.targets, start+b.window, 1)
	}
	b.n++
}

// score runs one batched pass over every pushed window and returns their
// scores in push order, valid until the next score call.
func (b *pendingBatch) score() []float32 {
	if cap(b.scores) < b.n {
		b.scores = make([]float32, b.n)
	}
	b.scores = b.scores[:b.n]
	if b.model == ModelLSTM {
		b.eng.LSTM.ScoreBatch(b.lstmScratch, b.x, b.targets, b.n, b.window, b.scores)
	} else {
		// The AE window score is the worst per-record reconstruction
		// MSE: the max keeps one strongly anomalous record from being
		// diluted across the window (cf. per-timestamp error
		// aggregation in the multivariate anomaly-detection literature
		// the paper builds on).
		b.eng.AE.ScoreBatch(b.aeScratch, b.x, b.n, b.dim, b.scores)
	}
	return b.scores
}

// digest fingerprints the i-th pushed window's model input for its
// provenance event.
func (b *pendingBatch) digest(i int) prov.Digest {
	winLen := b.window * b.dim
	d := prov.DigestFloats32(b.x[i*winLen : (i+1)*winLen])
	if b.model == ModelLSTM {
		d = d.Floats32(b.targets[i*b.dim : (i+1)*b.dim])
	}
	return d
}

func (b *pendingBatch) reset() {
	b.n, b.x, b.targets = 0, b.x[:0], b.targets[:0]
}

// threshold returns the model's active detection threshold.
func (m *Models) threshold(model ModelName) float64 {
	if model == ModelLSTM {
		return m.LSTMThreshold
	}
	return m.AEThreshold
}

// batchChunk is the offline batched scorers' tensor size: large enough
// to amortize per-batch overhead, small enough to stay L2-resident.
const batchChunk = 64

// ScoreTraceAEBatched scores every window of a trace through the batched
// engine the xApp runs. prec is always nn.Float32, the only engine: the
// parameter stays only while benchmark/probes.go passes it.
func (m *Models) ScoreTraceAEBatched(tr mobiflow.Trace, prec nn.Precision) []WindowScore {
	return m.scoreTraceBatched(tr, newPendingBatch(m, ModelAE))
}

// ScoreTraceLSTMBatched scores every (window, next) pair of a trace
// through the batched engine the xApp runs. prec is as for
// ScoreTraceAEBatched.
func (m *Models) ScoreTraceLSTMBatched(tr mobiflow.Trace, prec nn.Precision) []WindowScore {
	return m.scoreTraceBatched(tr, newPendingBatch(m, ModelLSTM))
}

// scoreTraceBatched encodes the trace the way the worker's ingest does
// and scores its windows through b, batchChunk at a time.
func (m *Models) scoreTraceBatched(tr mobiflow.Trace, b *pendingBatch) []WindowScore {
	e := feature.NewEncoder(m.Vocab)
	rows := feature.NewRowBuffer(b.dim)
	for _, r := range tr {
		rows.Push(e, r)
	}
	nWins := rows.Len() - b.span() + 1
	if nWins <= 0 {
		return nil
	}
	th := m.threshold(b.model)
	out := make([]WindowScore, 0, nWins)
	for base := 0; base < nWins; base += batchChunk {
		end := min(base+batchChunk, nWins)
		for i := base; i < end; i++ {
			b.push(rows, i)
		}
		for _, s := range b.score() {
			sc := float64(s)
			out = append(out, WindowScore{Index: len(out), Score: sc,
				Threshold: th, Anomalous: sc > th, Model: b.model})
		}
		b.reset()
	}
	return out
}
