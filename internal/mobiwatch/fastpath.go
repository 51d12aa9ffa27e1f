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
// use and caching them for every later caller (a worker's two lanes, the
// offline scorers and every runtime of the bundle share one engine pair). Engines built from a bundle do
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
// own memo of the scores it has computed, keyed by the row IDs the
// buffer's rowTable gave: the rows a batch scores are all named by one
// table.
type pendingBatch struct {
	model  ModelName
	eng    *FastEngines
	window int // N
	dim    int // per-record feature dimension

	rows   *feature.RowBuffer // what the windows are cut from
	starts []int              // each pushed window's first row, in push order
	scores []float32

	memo scoreMemo
	// memoed is whether score looked the pushed windows up in the memo;
	// reset clears it.
	memoed     bool
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
// the memo stands aside, every window goes to the engine, and so does a
// window with a row the rowTable gave no ID.
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
	ids, gen := b.rows.IDs()
	if gen != m.gen {
		m.restart(gen)
	}
	b.memoed = false
	if span > memoSpan || m.skip > 0 {
		m.skip = max(m.skip-n, 0)
		m.bypassed.Add(uint64(n))
		b.run(in, b.starts, b.scores)
		return b.scores
	}
	b.memoed = true
	b.missAt, b.missStarts = b.missAt[:0], b.missStarts[:0]
	looked := n
	for i, st := range b.starts {
		k, ok := keyOf(ids[st : st+span])
		if !ok {
			looked--
		} else if e, hit := m.get(k); hit {
			b.scores[i] = e.score
			continue
		}
		b.missAt = append(b.missAt, i)
		b.missStarts = append(b.missStarts, st)
	}
	if len(b.missAt) > 0 {
		b.missScores = grow(b.missScores, len(b.missAt))
		b.run(in, b.missStarts, b.missScores)
		for j, i := range b.missAt {
			b.scores[i] = b.missScores[j]
			if k, ok := keyOf(ids[b.starts[i] : b.starts[i]+span]); ok {
				m.put(k, memoEntry{score: b.missScores[j]})
			}
		}
	}
	m.bypassed.Add(uint64(n - looked))
	m.tally(looked, len(b.missAt)-(n-looked))
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
	ids, _ := b.rows.IDs()
	k, ok := keyOf(ids[b.starts[i] : b.starts[i]+b.span()])
	if !ok {
		return b.digestRows(i)
	}
	m := &b.memo
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
// attacker's to choose, so the memo trusts no hash: the window stage
// interns each row once, as it writes it, under an exact encoding of its
// bits (rowTable), each lane keys a window by its rows' IDs, and both
// tables compare whole keys.
const (
	// memoSpan is the widest window the memo keys (a key is a fixed array
	// of row IDs, so a lookup allocates nothing). A wider one — N > 7 for
	// the LSTM, whose window spans its target row too — is scored every
	// time.
	memoSpan = 8
	// memoRows and memoWindows bound the row table and a lane's memo, per
	// generation. Each table keeps two: entries go into the current one, a
	// hit in the previous one moves there, and when the current one is
	// full the previous one is dropped and the current one takes its
	// place. So a flood of new windows costs at most 2×memoWindows kept
	// scores, while a working set that fits one generation survives it. A
	// row sits in several windows, so telemetry repeats rows more than
	// windows (a benign trace of 3 900 windows has ≈ 390 distinct ones and
	// 188 distinct rows), and the row table is the smaller.
	memoRows    = 1024
	memoWindows = 2048
	// memoProbe, memoFind and memoSkip keep the memo from costing more
	// than it saves where telemetry does not repeat. The inter-arrival
	// feature is continuous, so records stamped at jittered or wall-clock
	// times seldom repeat a row or a window bit for bit, and an attacker
	// can vary every one. A lookup that misses adds a sixth to two fifths
	// to the window's engine cost, and a hit saves nine tenths of it
	// (BenchmarkScoreMemo), so the memo gains only while it finds more
	// than about one window in memoFind. The row table and each lane judge
	// themselves on what they find: each memoProbe rows interned or
	// windows looked up, if fewer than one in memoFind could be found — a
	// row that ends a window of rows all interned before, or a window
	// kept — the row table gives the next memoSkip rows no ID, which costs
	// nothing, or the lane sends the next memoSkip windows straight to the
	// engine, and then each probes again. Where nothing repeats, one row
	// and one window in sixteen is looked up.
	memoProbe = 1024
	memoFind  = 4
	memoSkip  = 15 * memoProbe
)

// prober is the stand-aside judgement the row table and each lane's memo
// make on their own counts.
type prober struct {
	looked, found int // of the current probe
	skip          int // left to pass without a lookup
}

// tally counts n lookups of which found found what they looked for, and
// closes the probe once it has counted memoProbe: the next memoSkip are
// to stand aside if fewer than one in memoFind was found.
func (p *prober) tally(n, found int) {
	p.looked += n
	p.found += found
	if p.looked >= memoProbe {
		if p.found*memoFind < p.looked {
			p.skip = memoSkip
		}
		p.looked, p.found = 0, 0
	}
}

// rowTable is a worker's interning of the rows its window stage writes,
// the feature.Interner of its history buffer: both lanes key their memos
// by the IDs it gives. Row IDs are never reused: a row that leaves the
// table and comes back is given a new one, so a kept score can be found
// only through the rows that produced it. Before the IDs would run out,
// the table starts over and says so; the row buffer forgets the IDs it
// holds, and each lane drops its memo when it first scores rows named
// after the restart.
type rowTable struct {
	rows   [2]map[string]uint32 // a row's appendRowBits → its ID; the current generation first
	lastID uint32               // the newest ID given
	buf    []byte               // a row's bits, encoded
	// span is the narrowest window a lane keys, and run how many rows in a
	// row, up to the newest, the table held before: a window can repeat
	// only if run ≥ span at its last row. Rows repeat where windows do
	// not (on a jittered clock, the records one UE step emits at once), so
	// the probe counts windows that could repeat, not rows.
	span, run int
	prober
}

// newRowTable returns an empty table for lanes whose narrowest window is
// span rows.
func newRowTable(span int) *rowTable {
	return &rowTable{rows: [2]map[string]uint32{{}, {}}, span: span}
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

// Intern returns the ID of the row whose values are x and non-zero
// columns cols, giving it a new one if the table does not hold it, or 0
// while the table stands aside.
func (t *rowTable) Intern(x []float32, cols []int32) (id uint32, restarted bool) {
	if t.skip > 0 {
		t.skip--
		t.run = 0
		return 0, false
	}
	if t.lastID == math.MaxUint32 {
		for i := range t.rows {
			clear(t.rows[i])
		}
		t.lastID, restarted = 0, true
	}
	t.buf = appendRowBits(t.buf[:0], x, cols)
	id, ok := t.rows[0][string(t.buf)]
	found := ok
	if !ok {
		if id, found = t.rows[1][string(t.buf)]; found {
			delete(t.rows[1], string(t.buf))
		} else {
			t.lastID++
			id = t.lastID
		}
		if len(t.rows[0]) >= memoRows {
			clear(t.rows[1])
			t.rows[0], t.rows[1] = t.rows[1], t.rows[0]
		}
		t.rows[0][string(t.buf)] = id
	}
	if t.run++; !found {
		t.run = 0
	}
	repeatable := 0
	if t.run >= t.span {
		repeatable = 1
	}
	t.tally(1, repeatable)
	return id, restarted
}

// windowKey names a window by the IDs of its rows, in order; slots past
// the span are 0, an ID no row is given.
type windowKey [memoSpan]uint32

// keyOf returns the key of the window whose rows have ids, and false if
// one of them has none.
func keyOf(ids []uint32) (k windowKey, ok bool) {
	for i, id := range ids {
		if id == 0 {
			return k, false
		}
		k[i] = id
	}
	return k, true
}

// memoEntry is what the memo keeps of a window: its score and, once a
// provenance event has asked for it, its digest.
type memoEntry struct {
	score    float32
	digested bool
	digest   prov.Digest
}

// scoreMemo is a pendingBatch's memo of window scores and digests, keyed
// by the IDs of the window's rows.
type scoreMemo struct {
	wins [2]map[windowKey]memoEntry
	gen  uint64 // the row table's restarts the keys were given under
	prober

	hit, miss, evicted, bypassed *obs.Counter // xsec_mobiwatch_score_memo_total, by outcome
}

func newScoreMemo(model ModelName) scoreMemo {
	c := func(outcome string) *obs.Counter { return obsScoreMemo.With(string(model), outcome) }
	return scoreMemo{
		wins: [2]map[windowKey]memoEntry{{}, {}},
		hit:  c("hit"), miss: c("miss"), evicted: c("evicted"), bypassed: c("bypassed"),
	}
}

// restart drops every kept score: the row table has started its IDs over,
// and gen is how often.
func (m *scoreMemo) restart(gen uint64) {
	m.evicted.Add(uint64(len(m.wins[0]) + len(m.wins[1])))
	for i := range m.wins {
		clear(m.wins[i])
	}
	m.gen = gen
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

// tally counts a pass that looked up n windows and missed misses of them.
func (m *scoreMemo) tally(n, misses int) {
	m.hit.Add(uint64(n - misses))
	m.miss.Add(uint64(misses))
	m.prober.tally(n, n-misses)
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
	rows.InternWith(newRowTable(b.span()))
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
