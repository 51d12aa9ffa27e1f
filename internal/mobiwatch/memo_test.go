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
)

// encodeRows encodes a trace the way the window stage does.
func encodeRows(m *Models, tr mobiflow.Trace) *feature.RowBuffer {
	e := feature.NewEncoder(m.Vocab)
	rows := feature.NewRowBuffer(m.RecordDim())
	for _, r := range tr {
		rows.Push(e, r)
	}
	return rows
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
// seen: it looks up the first probe's memoProbe windows, finds none, and
// sends the next memoSkip straight to the engine, exact all the same.
func TestMemoStandsAsideOnAFlood(t *testing.T) {
	_, _, models := fixtures(t)
	rows := encodeRows(models, floodTrace(memoProbe+memoSkip/2))
	for _, model := range []ModelName{ModelAE, ModelLSTM} {
		t.Run(string(model), func(t *testing.T) {
			b := newPendingBatch(models, model)
			c := memoPass(t, models, b, rows, batchChunk, false)
			nWins := uint64(rows.Len() - b.span() + 1)
			if c.hit != 0 || c.miss != memoProbe || c.bypassed != nWins-memoProbe {
				t.Errorf("%d windows: %d hits, %d misses, %d bypassed; want 0, %d, %d",
					nWins, c.hit, c.miss, c.bypassed, memoProbe, nWins-memoProbe)
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
	rows := encodeRows(models, floodTrace(6*memoWindows))
	for _, model := range []ModelName{ModelAE, ModelLSTM} {
		t.Run(string(model), func(t *testing.T) {
			b := newPendingBatch(models, model)
			c := memoPass(t, models, b, rows, batchChunk, true)
			m := &b.memo
			for g := range m.wins {
				if n := len(m.rows[g]); n > memoRows {
					t.Errorf("row generation %d holds %d, bound %d", g, n, memoRows)
				}
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

	// What a full memo holds: both generations of both tables, filled
	// with rows as wide as the flood's.
	const memoHeapBound = 768 << 10
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b := newPendingBatch(models, ModelLSTM)
	memoPass(t, models, b, rows, batchChunk, true)
	b.scores, b.missAt, b.missStarts, b.missScores = nil, nil, nil, nil
	b.lstmScratch = nil
	runtime.GC()
	runtime.ReadMemStats(&after)
	held := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	runtime.KeepAlive(b)
	t.Logf("a full memo holds %d KiB of live heap", held>>10)
	if held > memoHeapBound {
		t.Errorf("a full memo holds %d B, bound %d", held, memoHeapBound)
	}
}

// TestMemoStartsOverBeforeIDsRunOut runs a memo up to the last row ID:
// the pass that would run the IDs out first drops every kept score and
// row, so no ID is given twice, and the scores stay exact.
func TestMemoStartsOverBeforeIDsRunOut(t *testing.T) {
	_, mixed, models := fixtures(t)
	rows := encodeRows(models, mixed.Trace)
	b := newPendingBatch(models, ModelAE)
	memoPass(t, models, b, rows, batchChunk, true)
	kept := uint64(len(b.memo.wins[0]) + len(b.memo.wins[1]))
	b.memo.lastID = math.MaxUint32 - batchChunk
	c := memoPass(t, models, b, rows, batchChunk, true)
	if b.memo.lastID >= math.MaxUint32-batchChunk {
		t.Errorf("IDs ran on to %d", b.memo.lastID)
	}
	if c.evicted < kept {
		t.Errorf("%d of %d kept scores dropped at the restart", c.evicted, kept)
	}
}

// BenchmarkScoreMemo is what the memo costs and saves per window, at
// batchChunk windows a pass. hit runs one pass the memo always holds;
// miss runs a flood several times the memo's bound with the memo looking
// up every window, so every pass interns new rows and evicts. The flood
// and a benign trace on a jittered clock then run as shipped (memo),
// where the memo stands aside for most passes, and straight through the
// engine (engine), the floor the memo's bookkeeping adds to.
func BenchmarkScoreMemo(b *testing.B) {
	_, _, models := fixtures(b)
	flood := encodeRows(models, floodTrace(6*memoWindows))
	jittered := encodeRows(models, collectBenign(b, 480, 41, true))
	for _, model := range []ModelName{ModelAE, ModelLSTM} {
		for _, c := range []struct {
			name                     string
			rows                     *feature.RowBuffer
			engine, lookAlways, hold bool
		}{
			{name: "hit", rows: flood, lookAlways: true, hold: true},
			{name: "miss", rows: flood, lookAlways: true},
			{name: "flood/memo", rows: flood},
			{name: "flood/engine", rows: flood, engine: true},
			{name: "jittered/memo", rows: jittered},
			{name: "jittered/engine", rows: jittered, engine: true},
		} {
			b.Run(fmt.Sprintf("%s/%s", model, c.name), func(b *testing.B) {
				pb := newPendingBatch(models, model)
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
