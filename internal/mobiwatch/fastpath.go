package mobiwatch

import (
	"github.com/6g-xsec/xsec/internal/feature"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/nn"
	"github.com/6g-xsec/xsec/internal/prov"
)

// This file is the batched scoring engine both the online xApp and the
// offline ScoreTrace*Batched entry points score through. Instead of
// scoring each window as its completing record arrives (one GEMV per
// layer per window), records are encoded straight into a float32 row
// buffer, completed windows are appended to a pending batch tensor, and
// the whole batch is scored with one tiled GEMM per layer. The float64
// models, training and the scalar reference scorers (models.go) are
// untouched.

// FastEngines bundles the reduced-precision batched engines for one
// model bundle. Engines are immutable and safe for concurrent use with
// per-worker scratches.
type FastEngines struct {
	Prec nn.Precision
	AE   *nn.AEInference
	LSTM *nn.LSTMInference
}

// Engines returns the bundle's inference engines at the given precision,
// building them on first use and caching them for every later caller
// (workers across shards and xApp instances share one engine pair).
// Engines built from a bundle do not follow later retraining.
func (m *Models) Engines(prec nn.Precision) *FastEngines {
	build := func() *FastEngines {
		e := &FastEngines{Prec: prec}
		if prec == nn.Int8 {
			e.AE, e.LSTM = m.AE.QuantizeI8(), m.LSTM.QuantizeI8()
		} else {
			e.AE, e.LSTM = m.AE.QuantizeF32(), m.LSTM.QuantizeF32()
		}
		return e
	}
	c := m.engines
	if c == nil {
		// Hand-constructed bundle without a cache: build uncached.
		return build()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.byPre[prec]; ok {
		return e
	}
	e := build()
	if c.byPre == nil {
		c.byPre = make(map[nn.Precision]*FastEngines)
	}
	c.byPre[prec] = e
	return e
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

func newPendingBatch(m *Models, model ModelName, prec nn.Precision) *pendingBatch {
	b := &pendingBatch{model: model, eng: m.Engines(prec), window: m.Window, dim: m.RecordDim()}
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
// inference engine at the given precision. Float64 falls back to the
// scalar reference path; scores then match ScoreTraceAE exactly.
func (m *Models) ScoreTraceAEBatched(tr mobiflow.Trace, prec nn.Precision) []WindowScore {
	if prec == nn.Float64 {
		return m.ScoreTraceAE(tr)
	}
	return m.scoreTraceBatched(tr, newPendingBatch(m, ModelAE, prec))
}

// ScoreTraceLSTMBatched scores every (window, next) pair of a trace
// through the batched inference engine at the given precision. Float64
// falls back to the scalar reference path.
func (m *Models) ScoreTraceLSTMBatched(tr mobiflow.Trace, prec nn.Precision) []WindowScore {
	if prec == nn.Float64 {
		return m.ScoreTraceLSTM(tr)
	}
	return m.scoreTraceBatched(tr, newPendingBatch(m, ModelLSTM, prec))
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
