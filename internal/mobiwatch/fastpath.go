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
// into a float32 row buffer with their non-zero column lists, completed
// windows join a pending batch as views into it, and the whole batch is
// scored with one tiled GEMM per layer. The float64 models and their
// training are untouched; the float64 forward pass is the reference the
// tests bound this path by.

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
// scoring pass: where each window starts in the row buffer it was cut
// from, and the engine scratch. Windows are views, not copies: the
// engines read the buffer's rows and their non-zero column lists in
// place, and the LSTM projects each row once per pass however many of
// the batch's windows it sits in. The online worker and the offline
// ScoreTrace*Batched scorers fill and score the same type, so an
// offline evaluation runs the shipped scoring path by construction. Not
// safe for concurrent use; each owner allocates its own.
type pendingBatch struct {
	model  ModelName
	eng    *FastEngines
	window int // N
	dim    int // per-record feature dimension

	rows   *feature.RowBuffer // what the windows are cut from
	starts []int              // each pushed window's first row, in push order
	scores []float32

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

// push adds the window whose span() rows start at row start of rows.
// The rows must stay in the buffer, unmoved, until the batch is scored
// and digested.
func (b *pendingBatch) push(rows *feature.RowBuffer, start int) {
	b.rows = rows
	b.starts = append(b.starts, start)
}

// score runs one batched pass over every pushed window and returns their
// scores in push order, valid until the next score call.
func (b *pendingBatch) score() []float32 {
	n := len(b.starts)
	if cap(b.scores) < n {
		b.scores = make([]float32, n)
	}
	b.scores = b.scores[:n]
	if n == 0 {
		return b.scores
	}
	x, cols, off := b.rows.Sparse()
	in := nn.Rows{X: x, Dim: b.dim, Cols: cols, Off: off}
	if b.model == ModelLSTM {
		b.eng.LSTM.ScoreWindows(b.lstmScratch, in, b.starts, b.window, b.scores)
	} else {
		// The AE window score is the worst per-record reconstruction
		// MSE: the max keeps one strongly anomalous record from being
		// diluted across the window (cf. per-timestamp error
		// aggregation in the multivariate anomaly-detection literature
		// the paper builds on).
		b.eng.AE.ScoreWindows(b.aeScratch, in, b.starts, b.scores)
	}
	return b.scores
}

// digest fingerprints the i-th pushed window's model input for its
// provenance event: its rows, and for the LSTM the target row after
// them, in order — at the cost of their non-zeros.
func (b *pendingBatch) digest(i int) prov.Digest {
	d := prov.NewDigest()
	for r := b.starts[i]; r < b.starts[i]+b.span(); r++ {
		d = d.SparseFloats32(b.rows.Row(r), b.rows.Cols(r))
	}
	return d
}

func (b *pendingBatch) reset() { b.starts = b.starts[:0] }

// threshold returns the model's active detection threshold.
func (m *Models) threshold(model ModelName) float64 {
	if model == ModelLSTM {
		return m.LSTMThreshold
	}
	return m.AEThreshold
}

// batchChunk is the most windows one model's batch holds: offline
// scorers score batchChunk at a time, and the online worker flushes when
// a model's pending list reaches it, if the hand-off has not emptied
// first. Large enough to amortize per-batch overhead and the LSTM's
// T−1 extra projected rows, small enough to stay L2-resident.
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
