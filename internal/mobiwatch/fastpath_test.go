package mobiwatch

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/nn"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/ric"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// Divergence bounds for the reduced-precision engines against the
// float64 reference scores, asserted per attack class below. Float32
// loses only arithmetic rounding; int8 quantizes each weight row to 255
// levels, so scores can shift by a few percent.
const (
	f32ScoreRel = 1e-4
	f32ScoreAbs = 1e-6
	i8ScoreRel  = 0.08
	i8ScoreAbs  = 1e-3
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
// contract of the fast inference engine: across every seeded attack
// class (plus benign windows), batched float32 and int8 scores must stay
// within the documented bounds of the float64 reference, and float32
// threshold crossings must agree exactly on the seed dataset.
func TestBatchedScoreDivergenceByAttackClass(t *testing.T) {
	_, mixed, models := fixtures(t)
	N := models.Window

	for _, det := range []struct {
		name  string
		ref   []WindowScore
		span  int // records covered by window i: [i, i+span)
		score func(prec nn.Precision) []WindowScore
	}{
		{"ae", models.ScoreTraceAE(mixed.Trace), N,
			func(p nn.Precision) []WindowScore { return models.ScoreTraceAEBatched(mixed.Trace, p) }},
		{"lstm", models.ScoreTraceLSTM(mixed.Trace), N + 1,
			func(p nn.Precision) []WindowScore { return models.ScoreTraceLSTMBatched(mixed.Trace, p) }},
	} {
		t.Run(det.name, func(t *testing.T) {
			for _, prec := range []struct {
				p        nn.Precision
				rel, abs float64
				strict   bool // threshold crossings must agree exactly
			}{
				{nn.Float32, f32ScoreRel, f32ScoreAbs, true},
				{nn.Int8, i8ScoreRel, i8ScoreAbs, false},
			} {
				got := det.score(prec.p)
				if len(got) != len(det.ref) {
					t.Fatalf("%v: %d windows, reference %d", prec.p, len(got), len(det.ref))
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
					if d > prec.abs+prec.rel*math.Abs(det.ref[i].Score) {
						t.Errorf("%v window %d (class %d): score %g, reference %g",
							prec.p, i, cls, got[i].Score, det.ref[i].Score)
					}
					if prec.strict && got[i].Anomalous != det.ref[i].Anomalous {
						t.Errorf("%v window %d (class %d): crossing %v, reference %v (score %g vs %g, threshold %g)",
							prec.p, i, cls, got[i].Anomalous, det.ref[i].Anomalous,
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
					t.Logf("%s %v class %d: %d windows, max |Δscore| %.3g",
						det.name, prec.p, cls, classes[cls], d)
				}
			}
		})
	}
}

// TestBatchedInt8CrossingAgreement holds int8 to the detection outcome
// that matters operationally: on the seed dataset every threshold
// crossing must agree with the float64 reference (no windows sit close
// enough to the 99th-percentile thresholds for quantization noise to
// flip them).
func TestBatchedInt8CrossingAgreement(t *testing.T) {
	_, mixed, models := fixtures(t)
	refAE := models.ScoreTraceAE(mixed.Trace)
	refLSTM := models.ScoreTraceLSTM(mixed.Trace)
	i8AE := models.ScoreTraceAEBatched(mixed.Trace, nn.Int8)
	i8LSTM := models.ScoreTraceLSTMBatched(mixed.Trace, nn.Int8)
	for i := range refAE {
		if i8AE[i].Anomalous != refAE[i].Anomalous {
			t.Errorf("AE window %d: i8 crossing %v, f64 %v (score %g vs %g, threshold %g)",
				i, i8AE[i].Anomalous, refAE[i].Anomalous, i8AE[i].Score, refAE[i].Score, refAE[i].Threshold)
		}
	}
	for i := range refLSTM {
		if i8LSTM[i].Anomalous != refLSTM[i].Anomalous {
			t.Errorf("LSTM window %d: i8 crossing %v, f64 %v (score %g vs %g, threshold %g)",
				i, i8LSTM[i].Anomalous, refLSTM[i].Anomalous, i8LSTM[i].Score, refLSTM[i].Score, refLSTM[i].Threshold)
		}
	}
}

// TestBatchedFloat64FallsBackToReference pins the precision escape
// hatch: requesting f64 from the batched entry points returns the
// scalar reference path bit for bit.
func TestBatchedFloat64FallsBackToReference(t *testing.T) {
	_, mixed, models := fixtures(t)
	ae := models.ScoreTraceAEBatched(mixed.Trace, nn.Float64)
	ref := models.ScoreTraceAE(mixed.Trace)
	for i := range ref {
		if ae[i] != ref[i] {
			t.Fatalf("AE window %d: f64 batched %+v != reference %+v", i, ae[i], ref[i])
		}
	}
	lstm := models.ScoreTraceLSTMBatched(mixed.Trace, nn.Float64)
	refL := models.ScoreTraceLSTM(mixed.Trace)
	for i := range refL {
		if lstm[i] != refL[i] {
			t.Fatalf("LSTM window %d: f64 batched %+v != reference %+v", i, lstm[i], refL[i])
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
		w := newWorker(rt, nn.Float32)
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

// TestRunRejectsUnknownInference pins flag validation at xApp start:
// unknown precisions are refused, and so is f64 — the scalar scorer is an
// offline reference, not an online path — with an error that names what
// the xApp does run.
func TestRunRejectsUnknownInference(t *testing.T) {
	_, _, models := fixtures(t)
	if _, err := Run(nil, models, RunOptions{NodeID: "gnb-x", Inference: "bf16"}); err == nil {
		t.Fatal("Run accepted unknown inference precision")
	}
	_, err := Run(nil, models, RunOptions{NodeID: "gnb-x", Inference: "f64"})
	if err == nil {
		t.Fatal("Run accepted the offline-only f64 scorer")
	}
	for _, want := range []string{"f32", "i8"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("f64 refusal %q does not name accepted value %q", err, want)
		}
	}
}

// TestEnginesCached proves engine construction is shared: repeated
// Engines calls at one precision return the same instance, and distinct
// precisions are distinct engines.
func TestEnginesCached(t *testing.T) {
	_, _, models := fixtures(t)
	f32 := models.Engines(nn.Float32)
	if models.Engines(nn.Float32) != f32 {
		t.Error("Engines(f32) not cached")
	}
	i8 := models.Engines(nn.Int8)
	if i8 == f32 {
		t.Error("distinct precisions share an engine")
	}
	if f32.Prec != nn.Float32 || i8.Prec != nn.Int8 {
		t.Errorf("engine precisions %v/%v", f32.Prec, i8.Prec)
	}
	if f32.AE.InputDim() != models.RecordDim()*models.Window {
		t.Errorf("AE engine input dim %d, want %d", f32.AE.InputDim(), models.RecordDim()*models.Window)
	}
}
