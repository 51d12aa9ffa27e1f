package mobiwatch

import (
	"math"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/nn"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/ric"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// Divergence bounds for the float32 engine against the float64
// reference scores, asserted per attack class below. Float32 loses only
// arithmetic rounding.
const (
	f32ScoreRel = 1e-4
	f32ScoreAbs = 1e-6
)

// windowClass maps a window covering records [start, end) to the attack
// class of its first malicious record, or -1 for benign windows —
// mirroring the paper's any-malicious-record window labeling.
func windowClass(attackOf []int, start, end int) int {
	for i := start; i < end; i++ {
		if attackOf[i] >= 0 {
			return attackOf[i]
		}
	}
	return -1
}

// TestBatchedScoreDivergenceByAttackClass is the score-equivalence
// contract of the engine: across every seeded attack class (plus benign
// windows), batched float32 scores must stay within the documented
// bounds of the float64 reference, and threshold crossings must agree
// exactly on the seed dataset.
func TestBatchedScoreDivergenceByAttackClass(t *testing.T) {
	_, mixed, models := fixtures(t)
	N := models.Window

	for _, det := range []struct {
		name     string
		ref, got []WindowScore
		span     int // records covered by window i: [i, i+span)
	}{
		{"ae", models.ScoreTraceAE(mixed.Trace), models.ScoreTraceAEBatched(mixed.Trace, nn.Float32), N},
		{"lstm", models.ScoreTraceLSTM(mixed.Trace), models.ScoreTraceLSTMBatched(mixed.Trace, nn.Float32), N + 1},
	} {
		t.Run(det.name, func(t *testing.T) {
			got := det.got
			if len(got) != len(det.ref) {
				t.Fatalf("%d windows, reference %d", len(got), len(det.ref))
			}
			worst := map[int]float64{}
			classes := map[int]int{}
			for i := range got {
				cls := windowClass(mixed.AttackOf, i, i+det.span)
				classes[cls]++
				d := math.Abs(got[i].Score - det.ref[i].Score)
				if d > worst[cls] {
					worst[cls] = d
				}
				if d > f32ScoreAbs+f32ScoreRel*math.Abs(det.ref[i].Score) {
					t.Errorf("window %d (class %d): score %g, reference %g",
						i, cls, got[i].Score, det.ref[i].Score)
				}
				if got[i].Anomalous != det.ref[i].Anomalous {
					t.Errorf("window %d (class %d): crossing %v, reference %v (score %g vs %g, threshold %g)",
						i, cls, got[i].Anomalous, det.ref[i].Anomalous,
						got[i].Score, det.ref[i].Score, got[i].Threshold)
				}
			}
			// The mixed dataset must actually exercise benign windows
			// and all five seeded attack classes.
			for cls := -1; cls < 5; cls++ {
				if classes[cls] == 0 {
					t.Errorf("no windows of class %d in the mixed trace", cls)
				}
			}
			for cls, d := range worst {
				t.Logf("%s class %d: %d windows, max |Δscore| %.3g", det.name, cls, classes[cls], d)
			}
		})
	}
}

// TestThresholdsAreTheEnginePercentile pins where Train's cut comes
// from: the thresholds and quantile tables are calibrate over the scores
// the shipped engine gives the benign training trace, exactly.
func TestThresholdsAreTheEnginePercentile(t *testing.T) {
	benign, _, models := fixtures(t)
	for _, c := range []struct {
		name   string
		scores []WindowScore
		thr    float64
		quants []float64
	}{
		{"ae", models.ScoreTraceAEBatched(benign, nn.Float32), models.AEThreshold, models.AEQuantiles},
		{"lstm", models.ScoreTraceLSTMBatched(benign, nn.Float32), models.LSTMThreshold, models.LSTMQuantiles},
	} {
		thr, quants := calibrate(windowScores(c.scores), 99)
		if c.thr != thr {
			t.Errorf("%s threshold %.17g, engine's 99th percentile %.17g", c.name, c.thr, thr)
		}
		if len(c.quants) != len(quants) {
			t.Fatalf("%s: %d quantiles, want %d", c.name, len(c.quants), len(quants))
		}
		for p := range quants {
			if c.quants[p] != quants[p] {
				t.Errorf("%s quantile %d = %.17g, engine's %.17g", c.name, p, c.quants[p], quants[p])
			}
		}
	}
}

// TestOnlineFlagsMatchOfflineBatched feeds the mixed trace through the
// worker's ingest entry in indication batches of several sizes and
// requires the flagged windows to be exactly the Anomalous windows of the
// offline batched scorers: both sides fill and score the same
// pendingBatch, so neither the indication size nor the flush cadence may
// change which windows cross. The triage queue folds flagged windows by
// episode, so the flagged set is read from where every one of them is
// accounted for: the KindAlert event raise records on the window's chain,
// whatever the queue did with the alert. Evidence is recorded by run, so
// the ledger is checked further: the Counts of its window events must add
// up to every window scored.
func TestOnlineFlagsMatchOfflineBatched(t *testing.T) {
	_, mixed, models := fixtures(t)
	tr := mixed.Trace

	type flag struct {
		model             ModelName
		seqFirst, seqLast uint64
	}
	want := map[flag]bool{}
	for _, off := range []struct {
		scores []WindowScore
		span   int
	}{
		{models.ScoreTraceAEBatched(tr, nn.Float32), models.Window},
		{models.ScoreTraceLSTMBatched(tr, nn.Float32), models.Window + 1},
	} {
		for _, s := range off.scores {
			if s.Anomalous {
				want[flag{s.Model, tr[s.Index].Seq, tr[s.Index+off.span-1].Seq}] = true
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("offline scorers flag nothing on the mixed trace")
	}

	x, err := ric.NewPlatform(sdl.New()).RegisterXApp("online-offline")
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1, 7, 64} {
		rt := &Runtime{
			models: models,
			opts:   RunOptions{NodeID: "gnb-replay"},
			xapp:   x,
		}
		rt.triage = newAlertQueue(&rt.stats, obsQueueDepth.With("gnb-replay"), time.Now)
		w := newWorker(rt)
		// One chain per indication; sized so nothing is evicted or dropped.
		ledger := prov.New(prov.Options{MaxChains: len(tr) + 1, Buffer: 8 * len(tr)})
		old := prov.SetActive(ledger)
		for base, sn := 0, uint64(1); base < len(tr); base, sn = base+size, sn+1 {
			w.ingest(ric.Indication{NodeID: "gnb-replay", SN: sn}, tr[base:min(base+size, len(tr))])
		}
		w.flushLocked("gnb-replay") // the tail the age ticker would score
		prov.SetActive(old)
		ledger.Close() // drains what was recorded

		got := map[flag]bool{}
		offered := 0
		for _, c := range ledger.Chains() {
			for _, ev := range c.Events {
				// Nothing takes from the queue here, so raise's own event
				// is the first on the window; a later one is the queue
				// shedding or folding an alert it had kept.
				f := flag{ModelName(ev.Model), ev.SeqFirst, ev.SeqLast}
				if ev.Kind == prov.KindAlert && !got[f] {
					got[f] = true
					offered++
				}
			}
		}
		st := &rt.stats
		if n := st.AlertsRaised.Load() + st.AlertsDropped.Load(); int(n) != offered || ledger.Dropped() != 0 {
			t.Fatalf("batch %d: %d alerts offered, %d on the evidence chains (%d events dropped); the comparison needs all of them",
				size, n, offered, ledger.Dropped())
		}
		if in, out := st.AlertsRaised.Load()+st.AlertsDropped.Load(),
			st.AlertsTaken.Load()+st.AlertsFolded.Load()+st.AlertsShedPriority.Load()+st.AlertsShedStale.Load()+uint64(st.AlertsQueued.Load()); in != out {
			t.Errorf("batch %d: %d alerts offered, %d accounted for", size, in, out)
		}
		for f := range want {
			if !got[f] {
				t.Errorf("batch %d: offline flags %+v, online does not", size, f)
			}
		}
		for f := range got {
			if !want[f] {
				t.Errorf("batch %d: online flags %+v, offline does not", size, f)
			}
		}
		if wins := rt.stats.WindowsScored.Load(); int(wins) != 2*len(tr)-2*models.Window+1 {
			t.Errorf("batch %d: %d windows scored online, want %d", size, wins, 2*len(tr)-2*models.Window+1)
		}
		var inChains uint64
		for _, c := range ledger.Chains() {
			for _, ev := range c.Events {
				if ev.Kind == prov.KindWindow {
					inChains += uint64(ev.Count)
				}
			}
		}
		if wins := rt.stats.WindowsScored.Load(); inChains != wins || ledger.Dropped() != 0 {
			t.Errorf("batch %d: evidence chains account for %d windows (%d events dropped), %d were scored",
				size, inChains, ledger.Dropped(), wins)
		}
	}
}

// TestEnginesCached proves engine construction is shared: repeated
// Engines calls return the same pair.
func TestEnginesCached(t *testing.T) {
	_, _, models := fixtures(t)
	e := models.Engines()
	if models.Engines() != e {
		t.Error("Engines not cached")
	}
	if e.AE.InputDim() != models.RecordDim()*models.Window {
		t.Errorf("AE engine input dim %d, want %d", e.AE.InputDim(), models.RecordDim()*models.Window)
	}
}
