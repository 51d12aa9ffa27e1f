package mobiwatch

import (
	"encoding/binary"
	"math"

	"github.com/6g-xsec/xsec/internal/feature"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/nn"
	"github.com/6g-xsec/xsec/internal/obs"
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
// safe for concurrent use; each owner allocates its own, and with it its
// own memo of the scores it has computed.
type pendingBatch struct {
	model  ModelName
	eng    *FastEngines
	window int // N
	dim    int // per-record feature dimension

	rows   *feature.RowBuffer // what the windows are cut from
	starts []int              // each pushed window's first row, in push order
	scores []float32

	memo scoreMemo
	// memoed is whether score looked the pushed windows up in the memo,
	// interning rows from memoLo on; reset clears it.
	memoed     bool
	memoLo     int
	missAt     []int // a pass's windows the memo lacks, by push index
	missStarts []int // and by first row, for the engine
	missScores []float32

	aeScratch   *nn.AEBatchScratch   // ModelAE only
	lstmScratch *nn.LSTMBatchScratch // ModelLSTM only
}

func newPendingBatch(m *Models, model ModelName) *pendingBatch {
	b := &pendingBatch{model: model, eng: m.Engines(), window: m.Window, dim: m.RecordDim(),
		memo: newScoreMemo(model)}
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

// score returns the scores of every pushed window in push order, valid
// until the next score call: the memo's for the windows it holds, and one
// batched engine pass's for the rest, which the memo then keeps. While
// the memo stands aside, every window goes to the engine.
func (b *pendingBatch) score() []float32 {
	n := len(b.starts)
	b.scores = grow(b.scores, n)
	if n == 0 {
		return b.scores
	}
	x, cols, off := b.rows.Sparse()
	in := nn.Rows{X: x, Dim: b.dim, Cols: cols, Off: off}
	span := b.span()
	m := &b.memo
	b.memoed = false
	if span > memoSpan || m.skip > 0 {
		m.skip = max(m.skip-n, 0)
		m.bypassed.Add(uint64(n))
		b.run(in, b.starts, b.scores)
		return b.scores
	}
	lo, hi := b.starts[0], b.starts[0]+span
	for _, st := range b.starts {
		lo, hi = min(lo, st), max(hi, st+span)
	}
	m.intern(in, lo, hi)
	b.memoed, b.memoLo = true, lo
	b.missAt, b.missStarts = b.missAt[:0], b.missStarts[:0]
	for i, st := range b.starts {
		if e, ok := m.get(m.key(st-lo, span)); ok {
			b.scores[i] = e.score
		} else {
			b.missAt = append(b.missAt, i)
			b.missStarts = append(b.missStarts, st)
		}
	}
	if len(b.missAt) > 0 {
		b.missScores = grow(b.missScores, len(b.missAt))
		b.run(in, b.missStarts, b.missScores)
		for j, i := range b.missAt {
			b.scores[i] = b.missScores[j]
			m.put(m.key(b.starts[i]-lo, span), memoEntry{score: b.missScores[j]})
		}
	}
	m.tally(n, len(b.missAt))
	return b.scores
}

// run scores the windows at starts with the model's engine, into scores.
func (b *pendingBatch) run(in nn.Rows, starts []int, scores []float32) {
	if b.model == ModelLSTM {
		b.eng.LSTM.ScoreWindows(b.lstmScratch, in, starts, b.window, scores)
	} else {
		// The AE window score is the worst per-record reconstruction
		// MSE: the max keeps one strongly anomalous record from being
		// diluted across the window (cf. per-timestamp error
		// aggregation in the multivariate anomaly-detection literature
		// the paper builds on).
		b.eng.AE.ScoreWindows(b.aeScratch, in, starts, scores)
	}
}

// grow returns s resliced to n, reallocated if it is short.
func grow(s []float32, n int) []float32 {
	if cap(s) < n {
		return make([]float32, n)
	}
	return s[:n]
}

// digest fingerprints the i-th pushed window for its provenance event. A
// window the memo looked up and keeps is digested once, the first time
// it is asked for, and the memo keeps the digest beside the score: the
// digest reads the window's row bits and nothing else, and equal keys
// mean equal row bits.
func (b *pendingBatch) digest(i int) prov.Digest {
	if !b.memoed {
		return b.digestRows(i)
	}
	m := &b.memo
	k := m.key(b.starts[i]-b.memoLo, b.span())
	for g := range m.wins {
		if e, ok := m.wins[g][k]; ok {
			if !e.digested {
				e.digest, e.digested = b.digestRows(i), true
				m.wins[g][k] = e
			}
			return e.digest
		}
	}
	return b.digestRows(i) // dropped by a generation flip later in the pass
}

// digestRows fingerprints the i-th pushed window's model input: its rows,
// and for the LSTM the target row after them, in order — at the cost of
// their non-zeros.
func (b *pendingBatch) digestRows(i int) prov.Digest {
	d := prov.NewDigest()
	for r := b.starts[i]; r < b.starts[i]+b.span(); r++ {
		d = d.SparseFloats32(b.rows.Row(r), b.rows.Cols(r))
	}
	return d
}

func (b *pendingBatch) reset() { b.starts, b.memoed = b.starts[:0], false }

// The memo. Protocol telemetry repeats: in a benign trace whose UEs step
// a fixed clock, nine windows in ten repeat an earlier one bit for bit.
// The engines are batch-invariant, so a window's score is a function of
// its rows' bits alone, and a lane can hand back the score it computed
// for the same bits rather than run the engine again. The bits are the
// attacker's to choose, so the memo trusts no hash: a row is interned
// under an exact encoding of its bits, a window is keyed by its rows'
// IDs, and both tables compare whole keys.
const (
	// memoSpan is the widest window the memo keys (a key is a fixed array
	// of row IDs, so a lookup allocates nothing). A wider one — N > 7 for
	// the LSTM, whose window spans its target row too — is scored every
	// time.
	memoSpan = 8
	// memoRows and memoWindows bound a memo's tables, per generation. Each
	// table keeps two: entries go into the current one, a hit in the
	// previous one moves there, and when the current one is full the
	// previous one is dropped and the current one takes its place. So a
	// flood of new windows costs at most 2×memoWindows kept scores, while
	// a working set that fits one generation survives it. A row sits in
	// several windows, so telemetry repeats rows more than windows (a
	// benign trace of 3 900 windows has ≈ 390 distinct ones and 188
	// distinct rows), and the row table is the smaller.
	memoRows    = 1024
	memoWindows = 2048
	// memoProbe, memoFind and memoSkip keep the memo from costing more
	// than it saves where telemetry does not repeat. The inter-arrival
	// feature is continuous, so records stamped at jittered or wall-clock
	// times seldom repeat a window bit for bit, and an attacker can vary
	// every window. A lookup that misses adds a sixth to two fifths to the
	// window's engine cost, and a hit saves nine tenths of it
	// (BenchmarkScoreMemo), so the memo gains only while it finds more
	// than about one window in memoFind. The memo judges itself on what it finds: each
	// memoProbe windows it looks up, if it found fewer than one in
	// memoFind it stands aside for the next memoSkip windows, which go
	// straight to the engine, and then probes again. Where no window
	// repeats, it then looks up one window in sixteen.
	memoProbe = 1024
	memoFind  = 4
	memoSkip  = 15 * memoProbe
)

// windowKey names a window by the IDs of its rows, in order; slots past
// the span are 0, an ID no row is given.
type windowKey [memoSpan]uint32

// memoEntry is what the memo keeps of a window: its score and, once a
// provenance event has asked for it, its digest.
type memoEntry struct {
	score    float32
	digested bool
	digest   prov.Digest
}

// scoreMemo is a pendingBatch's memo of window scores and digests, keyed
// by the window's exact bits. Row IDs are never reused: a row that leaves
// the row table and comes back is given a new one, so a kept score can be
// found only through the rows that produced it.
type scoreMemo struct {
	rows   [2]map[string]uint32 // a row's appendRowBits → its ID; the current generation first
	wins   [2]map[windowKey]memoEntry
	lastID uint32   // the newest ID given
	buf    []byte   // a row's bits, encoded
	ids    []uint32 // the IDs of the rows a pass reads, from its first

	looked, found int // windows the current probe has looked up, and found
	skip          int // windows left to score without the memo

	hit, miss, evicted, bypassed *obs.Counter // xsec_mobiwatch_score_memo_total, by outcome
}

func newScoreMemo(model ModelName) scoreMemo {
	c := func(outcome string) *obs.Counter { return obsScoreMemo.With(string(model), outcome) }
	return scoreMemo{
		rows: [2]map[string]uint32{{}, {}},
		wins: [2]map[windowKey]memoEntry{{}, {}},
		hit:  c("hit"), miss: c("miss"), evicted: c("evicted"), bypassed: c("bypassed"),
	}
}

// appendRowBits appends an encoding of a row's exact bits, its non-zero
// columns cols and their values in x, that two rows of one width share
// only if they are equal bit for bit: per column, a uvarint of col<<1|1
// when the value is 1.0, or of col<<1 followed by the value's four bytes.
// The row ends where the encoding does.
func appendRowBits(buf []byte, x []float32, cols []int32) []byte {
	const one = 0x3f800000 // math.Float32bits(1)
	for _, c := range cols {
		col := uint64(uint32(c)) << 1
		if bits := math.Float32bits(x[c]); bits == one {
			buf = binary.AppendUvarint(buf, col|1)
		} else {
			buf = binary.AppendUvarint(buf, col)
			buf = binary.LittleEndian.AppendUint32(buf, bits)
		}
	}
	return buf
}

// intern puts the IDs of in's rows [lo, hi) in m.ids, giving a new ID to
// each row the row table does not hold. If the pass could run the IDs out,
// the memo starts over first, so that no ID in one pass was given before.
func (m *scoreMemo) intern(in nn.Rows, lo, hi int) {
	if uint64(m.lastID)+uint64(hi-lo) > math.MaxUint32 {
		m.evicted.Add(uint64(len(m.wins[0]) + len(m.wins[1])))
		for i := range m.rows {
			clear(m.rows[i])
			clear(m.wins[i])
		}
		m.lastID = 0
	}
	m.ids = m.ids[:0]
	for r := lo; r < hi; r++ {
		m.buf = appendRowBits(m.buf[:0], in.X[r*in.Dim:(r+1)*in.Dim], in.Cols[in.Off[r]:in.Off[r+1]])
		id, ok := m.rows[0][string(m.buf)]
		if !ok {
			if id, ok = m.rows[1][string(m.buf)]; ok {
				delete(m.rows[1], string(m.buf))
			} else {
				m.lastID++
				id = m.lastID
			}
			if len(m.rows[0]) >= memoRows {
				clear(m.rows[1])
				m.rows[0], m.rows[1] = m.rows[1], m.rows[0]
			}
			m.rows[0][string(m.buf)] = id
		}
		m.ids = append(m.ids, id)
	}
}

// key is the key of the window of span rows from the pass's row first.
func (m *scoreMemo) key(first, span int) (k windowKey) {
	copy(k[:], m.ids[first:first+span])
	return k
}

// get returns the entry kept under k, if any.
func (m *scoreMemo) get(k windowKey) (memoEntry, bool) {
	if e, ok := m.wins[0][k]; ok {
		return e, true
	}
	e, ok := m.wins[1][k]
	if ok {
		delete(m.wins[1], k)
		m.put(k, e)
	}
	return e, ok
}

// put keeps e under k.
func (m *scoreMemo) put(k windowKey, e memoEntry) {
	if len(m.wins[0]) >= memoWindows {
		m.evicted.Add(uint64(len(m.wins[1])))
		clear(m.wins[1])
		m.wins[0], m.wins[1] = m.wins[1], m.wins[0]
	}
	m.wins[0][k] = e
}

// tally counts a pass that looked up n windows and missed misses of them,
// and closes the probe once it has looked up memoProbe: the memo stands
// aside for memoSkip windows if it found fewer than one in memoFind.
func (m *scoreMemo) tally(n, misses int) {
	m.hit.Add(uint64(n - misses))
	m.miss.Add(uint64(misses))
	m.looked += n
	m.found += n - misses
	if m.looked >= memoProbe {
		if m.found*memoFind < m.looked {
			m.skip = memoSkip
		}
		m.looked, m.found = 0, 0
	}
}

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
