package mobiwatch

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/feature"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/nn"
	"github.com/6g-xsec/xsec/internal/prov"
)

// encodeRows encodes a trace through a worker's window stage: its
// encoder, its row buffer and the row table that names each row as the
// buffer writes it.
func encodeRows(m *Models, tr mobiflow.Trace) *feature.RowBuffer {
	return internRows(m, tr, false).rows
}

// internRows is encodeRows returning the worker, whose rows hold the
// trace. With lookAlways the row table interns every row, as it does on
// telemetry that repeats.
func internRows(m *Models, tr mobiflow.Trace, lookAlways bool) *worker {
	w := newWorker(&Runtime{models: m})
	for _, r := range tr {
		if lookAlways {
			w.table.skip = 0
		}
		w.rows.Push(w.encoder, r)
	}
	return w
}

// engineScores scores the windows at starts with the model's engine
// itself, no memo in between.
func engineScores(m *Models, model ModelName, rows *feature.RowBuffer, starts []int) []float32 {
	x, cols, off := rows.Sparse()
	in := nn.Rows{X: x, Dim: rows.Dim(), Cols: cols, Off: off}
	out := make([]float32, len(starts))
	eng := m.Engines()
	if model == ModelLSTM {
		eng.LSTM.ScoreWindows(eng.LSTM.NewBatchScratch(), in, starts, m.Window, out)
	} else {
		eng.AE.ScoreWindows(eng.AE.NewBatchScratch(), in, starts, out)
	}
	return out
}

// memoCounts reads xsec_mobiwatch_score_memo_total for model.
type memoCounts struct{ hit, miss, evicted, bypassed uint64 }

func readMemoCounts(model ModelName) memoCounts {
	c := func(outcome string) uint64 { return obsScoreMemo.With(string(model), outcome).Value() }
	return memoCounts{c("hit"), c("miss"), c("evicted"), c("bypassed")}
}

// since is what the counters added after before was read.
func (c memoCounts) since(before memoCounts) memoCounts {
	return memoCounts{c.hit - before.hit, c.miss - before.miss, c.evicted - before.evicted, c.bypassed - before.bypassed}
}

// memoPass scores every window of rows through b, size windows a pass,
// fails t on any score whose bits differ from the engine's own on the
// same pass, and returns what the memo's counters added. With lookAlways
// the memo looks up every window, as it does on telemetry that repeats.
func memoPass(t *testing.T, m *Models, b *pendingBatch, rows *feature.RowBuffer, size int, lookAlways bool) memoCounts {
	t.Helper()
	before := readMemoCounts(b.model)
	nWins := rows.Len() - b.span() + 1
	starts := make([]int, 0, size)
	for base := 0; base < nWins; base += size {
		starts = starts[:0]
		for i := base; i < min(base+size, nWins); i++ {
			b.push(rows, i)
			starts = append(starts, i)
		}
		if lookAlways {
			b.memo.skip = 0
		}
		want := engineScores(m, b.model, rows, starts)
		for k, s := range b.score() {
			if math.Float32bits(s) != math.Float32bits(want[k]) {
				t.Fatalf("%s window %d: memo %g (%#x), engine %g (%#x)",
					b.model, starts[k], s, math.Float32bits(s), want[k], math.Float32bits(want[k]))
			}
		}
		b.reset()
	}
	return readMemoCounts(b.model).since(before)
}

// collectBenign runs benign sessions the way core.Framework.CollectBenign
// does — ten UEs in turn, 300 ms between sessions, an abandoned context
// released — and returns their telemetry. Each UE step is 10 ms of the
// virtual clock, as there; with jitter it is 5–50 ms, drawn to the
// nanosecond, as records stamped by a wall clock would be.
func collectBenign(t testing.TB, sessions int, seed int64, jitter bool) mobiflow.Trace {
	t.Helper()
	s, err := dataset.NewScenario(dataset.BenignConfig{Fleet: 10, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, u := range s.Fleet {
		u.Pace = func() {
			step := 10 * time.Millisecond
			if jitter {
				step = 5*time.Millisecond + time.Duration(rng.Int63n(int64(45*time.Millisecond)))
			}
			s.Clock.Advance(step)
		}
	}
	for i := 0; i < sessions; i++ {
		u := s.Fleet[i%len(s.Fleet)]
		res, err := u.RunSession(s.GNB)
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if !u.Profile.Deregisters {
			s.GNB.ReleaseUE(res.UEID)
			s.AMF.ReleaseUE(res.UEID)
		}
		s.Clock.Advance(300 * time.Millisecond)
	}
	return s.GNB.Records()
}

// TestMemoScoresMatchEngines is the memo's exactness contract: through
// the memo, fresh benign traces — collected for this test, not the
// training trace, so their repeats are the telemetry's own and not a
// replay's — and the seed dataset's attack trace score bit for bit what
// the engines give on the same rows, at one, seven and 64 windows a
// pass. On a fixed clock most benign windows repeat an earlier one
// exactly, and the memo finds them; on a jittered clock few do, and the
// memo stands aside for most of the trace.
func TestMemoScoresMatchEngines(t *testing.T) {
	_, mixed, models := fixtures(t)
	for _, tr := range []struct {
		name       string
		trace      mobiflow.Trace
		minRatio   float64 // of hits to windows looked up
		standAside bool    // the memo stands aside for part of the trace
	}{
		{"fresh benign", collectBenign(t, 240, 41, false), 0.85, false},
		{"jittered benign", collectBenign(t, 240, 41, true), 0, true},
		{"seed attacks", mixed.Trace, 0, false},
	} {
		rows := encodeRows(models, tr.trace)
		for _, model := range []ModelName{ModelAE, ModelLSTM} {
			for _, size := range []int{1, 7, batchChunk} {
				t.Run(fmt.Sprintf("%s/%s/%d", tr.name, model, size), func(t *testing.T) {
					c := memoPass(t, models, newPendingBatch(models, model), rows, size, false)
					ratio := float64(c.hit) / float64(c.hit+c.miss)
					t.Logf("%d windows looked up, hit ratio %.3f, %d bypassed", c.hit+c.miss, ratio, c.bypassed)
					if ratio < tr.minRatio {
						t.Errorf("hit ratio %.3f, want ≥ %.2f", ratio, tr.minRatio)
					}
					if aside := c.bypassed > 0; aside != tr.standAside {
						t.Errorf("%d windows bypassed the memo, want some: %v", c.bypassed, tr.standAside)
					}
				})
			}
		}
	}
}

// TestMemoDigestMatchesRows: the digest a window's provenance event gets
// is the one its rows give, whether the memo digests it in this pass,
// kept it from an earlier one, carried it across a generation flip, or
// stood aside.
func TestMemoDigestMatchesRows(t *testing.T) {
	_, _, models := fixtures(t)
	// A lane's memo keys windows by the IDs of one row table: both traces
	// are named by the same one.
	w := internRows(models, collectBenign(t, 120, 41, false), false)
	benign := w.rows
	jittered := feature.NewRowBuffer(models.RecordDim())
	jittered.InternWith(w.table)
	e := feature.NewEncoder(models.Vocab)
	for _, r := range collectBenign(t, 240, 41, true) {
		jittered.Push(e, r)
	}
	for _, model := range []ModelName{ModelAE, ModelLSTM} {
		t.Run(string(model), func(t *testing.T) {
			b := newPendingBatch(models, model)
			pass := func(name string, rows *feature.RowBuffer, lookAlways bool) {
				nWins := rows.Len() - b.span() + 1
				for base := 0; base < nWins; base += batchChunk {
					for i := base; i < min(base+batchChunk, nWins); i++ {
						b.push(rows, i)
					}
					if lookAlways {
						b.memo.skip = 0
					}
					b.score()
					for k, st := range b.starts {
						want := prov.NewDigest()
						for r := st; r < st+b.span(); r++ {
							want = want.SparseFloats32(rows.Row(r), rows.Cols(r))
						}
						for ask := 0; ask < 2; ask++ {
							if got := b.digest(k); got != want {
								t.Fatalf("%s: window %d (ask %d) digests to %v, its rows to %v", name, st, ask, got, want)
							}
						}
					}
					b.reset()
				}
			}
			digested := func(g int) (n int) {
				for _, e := range b.memo.wins[g] {
					if e.digested {
						n++
					}
				}
				return n
			}

			pass("benign", benign, true)
			pass("benign again", benign, true) // every digest kept
			if n := digested(0); n == 0 || n != len(b.memo.wins[0]) {
				t.Fatalf("%d of %d kept windows digested, want all", n, len(b.memo.wins[0]))
			}
			// Keys whose first row ID is 0, which no row is given, fill the
			// current generation: the benign windows move to the previous one.
			for i := 0; i < memoWindows; i++ {
				b.memo.put(windowKey{0, uint32(i + 1)}, memoEntry{})
			}
			if digested(1) == 0 {
				t.Fatal("no digested window in the previous generation after a flip")
			}
			pass("benign after a flip", benign, true)

			before := readMemoCounts(model)
			pass("jittered", jittered, false)
			if readMemoCounts(model).since(before).bypassed == 0 {
				t.Error("the memo never stood aside on a jittered clock")
			}
		})
	}
}

// floodTrace returns n benign-shaped records in which no two rows
// encode alike: each arrives a different time after the one before (the
// inter-arrival feature) and on an RNTI the encoder has not seen — the
// shape of a flood whose records the attacker varies.
func floodTrace(n int) mobiflow.Trace {
	msgs := []string{"RRCSetupRequest", "RRCSetup", "RRCSetupComplete", "RegistrationRequest"}
	tr := make(mobiflow.Trace, n)
	at := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := range tr {
		at = at.Add(time.Millisecond + time.Duration(i)*time.Microsecond)
		tr[i] = mobiflow.Record{Seq: uint64(i), UEID: uint64(i), Timestamp: at,
			RNTI: cell.RNTI(1 + i%60000), Msg: msgs[i%len(msgs)], Dir: cell.Uplink}
	}
	return tr
}

// TestMemoStandsAsideOnAFlood floods the memo with windows it has never
// seen. The row table interns the first probe's memoProbe rows, finds
// none, and names none of the next memoSkip: the lane looks up the
// windows whose rows all have IDs and sends the rest straight to the
// engine. Where the table interns every row, the lane looks up the first
// probe's memoProbe windows, finds none, and stands aside for the next
// memoSkip. The scores are exact all the same.
func TestMemoStandsAsideOnAFlood(t *testing.T) {
	_, _, models := fixtures(t)
	flood := floodTrace(memoProbe + memoSkip/2)
	type aside struct {
		by   string
		rows *feature.RowBuffer
	}
	asides := []aside{
		{"the row table", internRows(models, flood, false).rows},
		{"the lane", internRows(models, flood, true).rows}, // the table interns every row
	}
	for _, model := range []ModelName{ModelAE, ModelLSTM} {
		t.Run(string(model), func(t *testing.T) {
			for _, a := range asides {
				b := newPendingBatch(models, model)
				c := memoPass(t, models, b, a.rows, batchChunk, false)
				nWins := uint64(a.rows.Len() - b.span() + 1)
				looked := uint64(memoProbe)
				if a.by == "the row table" {
					looked = uint64(memoProbe - b.span() + 1) // the windows inside the probed rows
				}
				if c.hit != 0 || c.miss != looked || c.bypassed != nWins-looked {
					t.Errorf("standing aside by %s, %d windows: %d hits, %d misses, %d bypassed; want 0, %d, %d",
						a.by, nWins, c.hit, c.miss, c.bypassed, looked, nWins-looked)
				}
			}
		})
	}
}

// TestMemoFloodStaysBounded floods a memo that looks up every window
// with windows it has never seen, several times its bound: the scores
// stay exact, each table generation stays within its entry bound, the
// dropped scores are counted, and the live heap a full memo holds stays
// under memoHeapBound.
func TestMemoFloodStaysBounded(t *testing.T) {
	_, _, models := fixtures(t)
	flood := floodTrace(6 * memoWindows)
	w := internRows(models, flood, true)
	rows := w.rows
	for g := range w.table.rows {
		if n := len(w.table.rows[g]); n > memoRows {
			t.Errorf("row generation %d holds %d, bound %d", g, n, memoRows)
		}
	}
	for _, model := range []ModelName{ModelAE, ModelLSTM} {
		t.Run(string(model), func(t *testing.T) {
			b := newPendingBatch(models, model)
			c := memoPass(t, models, b, rows, batchChunk, true)
			m := &b.memo
			for g := range m.wins {
				if n := len(m.wins[g]); n > memoWindows {
					t.Errorf("window generation %d holds %d, bound %d", g, n, memoWindows)
				}
			}
			if c.hit != 0 {
				t.Errorf("%d hits on windows that never repeat", c.hit)
			}
			kept := uint64(len(m.wins[0]) + len(m.wins[1]))
			if c.evicted == 0 || c.evicted+kept != c.miss {
				t.Errorf("%d windows computed, %d kept + %d evicted", c.miss, kept, c.evicted)
			}
		})
	}

	// What a full memo holds: both generations of a row table, filled
	// with rows as wide as the flood's, and of one lane's window table.
	const memoHeapBound = 768 << 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	tbl := newRowTable(models.Window)
	for r := 0; r < rows.Len(); r++ {
		tbl.skip = 0
		tbl.Intern(rows.Row(r), rows.Cols(r))
	}
	tbl.buf = nil
	b := newPendingBatch(models, ModelLSTM)
	memoPass(t, models, b, rows, batchChunk, true)
	b.scores, b.missAt, b.missStarts, b.missScores = nil, nil, nil, nil
	b.lstmScratch = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(b)
	runtime.KeepAlive(tbl)
	t.Logf("a full row table and lane memo hold %d KiB of live heap", held>>10)
	if held > memoHeapBound {
		t.Errorf("a full row table and lane memo hold %d B, bound %d", held, memoHeapBound)
	}
}

// TestMemoStartsOverBeforeIDsRunOut runs a worker's row table up to the
// last row ID. The row that would run the IDs out starts the table over:
// the worker's row buffer forgets the IDs it holds, and both lanes drop
// every kept score when they first score rows named after the restart,
// so no hit crosses it. A flood, whose windows all differ, is named from
// ID 1 before the restart and a benign trace from ID 1 after it, so a
// score kept across the restart would be handed to a window it was not
// computed for, which the engine's own score on each window catches.
func TestMemoStartsOverBeforeIDsRunOut(t *testing.T) {
	_, _, models := fixtures(t)
	w := internRows(models, floodTrace(3000), true)
	kept := [2]uint64{}
	for i := range w.lanes {
		b := w.lanes[i].batch
		memoPass(t, models, b, w.rows, batchChunk, true)
		kept[i] = uint64(len(b.memo.wins[0]) + len(b.memo.wins[1]))
	}
	w.rows.Trim(w.rows.Len())
	w.table.lastID = math.MaxUint32 - 1
	for _, r := range collectBenign(t, 120, 41, false) {
		w.table.skip = 0
		w.rows.Push(w.encoder, r)
	}
	if w.table.lastID >= math.MaxUint32-1 {
		t.Fatalf("IDs ran on to %d", w.table.lastID)
	}
	ids, gen := w.rows.IDs()
	if gen != 1 || ids[0] != 0 || ids[len(ids)-1] == 0 {
		t.Fatalf("after the restart the buffer's IDs are of restart %d, first %d, last %d; want 1, 0 (forgotten), not 0",
			gen, ids[0], ids[len(ids)-1])
	}
	for i := range w.lanes {
		b := w.lanes[i].batch
		c := memoPass(t, models, b, w.rows, batchChunk, true)
		if b.memo.gen != 1 || c.evicted < kept[i] {
			t.Errorf("%s: memo of restart %d, %d of %d kept scores dropped at the restart",
				b.model, b.memo.gen, c.evicted, kept[i])
		}
		if c.hit == 0 || c.miss == 0 {
			t.Errorf("%s: %d hits and %d misses after the restart, want some of each", b.model, c.hit, c.miss)
		}
	}
}

// BenchmarkScoreMemo is what the memo costs and saves per window, at
// batchChunk windows a pass, the window stage's interning of the pass's
// batchChunk new rows included. hit runs one pass the memo always holds;
// miss runs a flood several times the memo's bound with the memo looking
// up every window, so every pass interns new rows and evicts. The flood
// and a benign trace on a jittered clock then run as shipped (memo),
// where the row table and the memo stand aside for most passes, and
// straight through the engine (engine), the floor the memo's bookkeeping
// adds to.
func BenchmarkScoreMemo(b *testing.B) {
	_, _, models := fixtures(b)
	floodTr := floodTrace(6 * memoWindows)
	lookedFlood := internRows(models, floodTr, true).rows
	flood := encodeRows(models, floodTr)
	jittered := encodeRows(models, collectBenign(b, 480, 41, true))
	for _, model := range []ModelName{ModelAE, ModelLSTM} {
		for _, c := range []struct {
			name                     string
			rows                     *feature.RowBuffer
			engine, lookAlways, hold bool
		}{
			{name: "hit", rows: lookedFlood, lookAlways: true, hold: true},
			{name: "miss", rows: lookedFlood, lookAlways: true},
			{name: "flood/memo", rows: flood},
			{name: "flood/engine", rows: flood, engine: true},
			{name: "jittered/memo", rows: jittered},
			{name: "jittered/engine", rows: jittered, engine: true},
		} {
			b.Run(fmt.Sprintf("%s/%s", model, c.name), func(b *testing.B) {
				pb := newPendingBatch(models, model)
				tbl := newRowTable(models.Window) // the window stage's, timed on the rows each pass adds
				nWins := c.rows.Len() - pb.span() + 1
				x, cols, off := c.rows.Sparse()
				in := nn.Rows{X: x, Dim: c.rows.Dim(), Cols: cols, Off: off}
				starts := make([]int, batchChunk)
				scores := make([]float32, batchChunk)
				b.ReportAllocs()
				base := 0
				for i := 0; i < b.N; i++ {
					if !c.hold {
						base = (base + batchChunk) % (nWins - batchChunk)
					}
					for k := range starts {
						starts[k] = base + k
					}
					if c.engine {
						pb.run(in, starts, scores)
						continue
					}
					for r := base + pb.span() - 1; r < base+pb.span()-1+batchChunk; r++ {
						if c.lookAlways {
							tbl.skip = 0
						}
						tbl.Intern(c.rows.Row(r), c.rows.Cols(r))
					}
					for _, st := range starts {
						pb.push(c.rows, st)
					}
					if c.lookAlways {
						pb.memo.skip = 0
					}
					pb.score()
					pb.reset()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchChunk), "ns/window")
			})
		}
	}
}
