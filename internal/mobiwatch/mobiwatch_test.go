package mobiwatch

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"

	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/detect"
	"github.com/6g-xsec/xsec/internal/feature"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/nn"
)

// Shared fixtures: training is the expensive part, so build once.
var (
	fixtureOnce   sync.Once
	fixtureBenign mobiflow.Trace
	fixtureMixed  *dataset.Labeled
	fixtureModels *Models
	fixtureErr    error
)

func fixtures(t testing.TB) (mobiflow.Trace, *dataset.Labeled, *Models) {
	t.Helper()
	fixtureOnce.Do(func() {
		fixtureBenign, fixtureErr = dataset.GenerateBenign(dataset.BenignConfig{Sessions: 60, Fleet: 10, Seed: 21})
		if fixtureErr != nil {
			return
		}
		fixtureMixed, fixtureErr = dataset.GenerateMixed(dataset.MixedConfig{
			BenignConfig:       dataset.BenignConfig{Fleet: 8, Seed: 22},
			InstancesPerAttack: 1,
			BenignBetween:      2,
		})
		if fixtureErr != nil {
			return
		}
		fixtureModels, fixtureErr = Train(fixtureBenign, TrainOptions{Epochs: 20, Seed: 5})
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixtureBenign, fixtureMixed, fixtureModels
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, TrainOptions{}); err == nil {
		t.Error("empty trace accepted")
	}
	short := mobiflow.Trace{{Msg: "a"}, {Msg: "b"}}
	if _, err := Train(short, TrainOptions{Window: 4}); err == nil {
		t.Error("trace shorter than window accepted")
	}
}

func TestDetectionTable2Shape(t *testing.T) {
	_, mixed, models := fixtures(t)

	// Window-level metrics at the paper's 99th-percentile threshold.
	aeScores := models.ScoreTraceAEBatched(mixed.Trace, nn.Float32)
	labels := feature.WindowLabels(mixed.Malicious, models.Window)
	if len(aeScores) != len(labels) {
		t.Fatalf("scores %d vs labels %d", len(aeScores), len(labels))
	}
	pred := make([]bool, len(aeScores))
	for i, s := range aeScores {
		pred[i] = s.Anomalous
	}
	aeConf := detect.Evaluate(pred, labels)
	// Only the leading-edge windows (benign prefix + the first,
	// content-identical attack record) may be missed; recall stays
	// high. See EXPERIMENTS.md for the full threshold trade-off curve.
	if aeConf.Recall() < 0.85 {
		t.Errorf("AE recall = %.4f, want >= 0.85 (%s)", aeConf.Recall(), aeConf)
	}
	if aeConf.Precision() < 0.80 {
		t.Errorf("AE precision = %.4f suspiciously low (%s)", aeConf.Precision(), aeConf)
	}

	// LSTM window-level: the AE leads on F1, as in Table 2.
	lstmScores := models.ScoreTraceLSTMBatched(mixed.Trace, nn.Float32)
	lstmLabels := feature.WindowLabelsNext(mixed.Malicious, models.Window)
	predL := make([]bool, len(lstmScores))
	for i, s := range lstmScores {
		predL[i] = s.Anomalous
	}
	lstmConf := detect.Evaluate(predL, lstmLabels)
	if lstmConf.Recall() < 0.70 {
		t.Errorf("LSTM recall = %.4f, want >= 0.70 (%s)", lstmConf.Recall(), lstmConf)
	}

	// Event-level recall — the paper's headline "all attack sequences
	// classified as anomalous": every attack event must raise at least
	// one flagged window, for both models. No false negatives per
	// attack instance.
	for _, conf := range []struct {
		name   string
		scores []WindowScore
		span   int // records covered by window i: [i, i+span)
	}{
		{"AE", aeScores, models.Window},
		{"LSTM", lstmScores, models.Window + 1},
	} {
		for _, ev := range mixed.Events {
			ueSet := make(map[uint64]bool, len(ev.UEIDs))
			for _, id := range ev.UEIDs {
				ueSet[id] = true
			}
			detected := false
			for _, s := range conf.scores {
				if !s.Anomalous {
					continue
				}
				for j := s.Index; j < s.Index+conf.span && j < len(mixed.Trace); j++ {
					if ueSet[mixed.Trace[j].UEID] {
						detected = true
						break
					}
				}
				if detected {
					break
				}
			}
			if !detected {
				t.Errorf("%s: attack event %s (instance %d) raised no alert", conf.name, ev.Kind, ev.Instance)
			}
		}
	}

	// At the paper's benign-accuracy operating point (~93%), recall
	// approaches 100%: refit the threshold at the 93rd percentile and
	// re-evaluate — the Table 2 shape.
	trainScores := windowScores(models.ScoreTraceAEBatched(fixtureBenign, nn.Float32))
	thr93 := detect.PercentileThreshold(trainScores, 93)
	for i, s := range aeScores {
		pred[i] = s.Score > thr93
	}
	conf93 := detect.Evaluate(pred, labels)
	if conf93.Recall() < 0.95 {
		t.Errorf("AE recall at 93rd-pct threshold = %.4f, want >= 0.95 (%s)", conf93.Recall(), conf93)
	}
}

func TestBenignAccuracyShape(t *testing.T) {
	benign, _, models := fixtures(t)
	// Held-out style check on the training distribution: the fraction
	// of benign windows below threshold must be high but imperfect
	// (the paper reports 93.23% / 91.15%).
	scores := models.ScoreTraceAEBatched(benign, nn.Float32)
	below := 0
	for _, s := range scores {
		if !s.Anomalous {
			below++
		}
	}
	acc := float64(below) / float64(len(scores))
	if acc < 0.90 {
		t.Errorf("benign AE accuracy = %.4f, want >= 0.90", acc)
	}
}

func TestPerAttackDetection(t *testing.T) {
	_, mixed, models := fixtures(t)
	scores := models.ScoreTraceAEBatched(mixed.Trace, nn.Float32)
	labels := feature.WindowLabels(mixed.Malicious, models.Window)

	// For every attack kind, at least one of its malicious windows is
	// flagged (no attack type is invisible).
	kindOf := func(widx int) int {
		// A window's kind: the first malicious record inside it.
		for j := widx; j < widx+models.Window; j++ {
			if mixed.Malicious[j] {
				return mixed.AttackOf[j]
			}
		}
		return -1
	}
	flagged := make(map[int]bool)
	missed := make(map[int]int)
	for i, s := range scores {
		if !labels[i] {
			continue
		}
		k := kindOf(i)
		if s.Anomalous {
			flagged[k] = true
		} else {
			missed[k]++
		}
	}
	for kind := 0; kind < 5; kind++ {
		if !flagged[kind] {
			t.Errorf("attack kind %d never flagged (missed %d windows)", kind, missed[kind])
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	_, mixed, models := fixtures(t)
	data, err := models.Save()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Window != models.Window ||
		loaded.AEThreshold != models.AEThreshold ||
		loaded.LSTMThreshold != models.LSTMThreshold {
		t.Error("bundle metadata mismatch")
	}
	// Identical scores after reload.
	a := models.ScoreTraceAEBatched(mixed.Trace[:40], nn.Float32)
	b := loaded.ScoreTraceAEBatched(mixed.Trace[:40], nn.Float32)
	for i := range a {
		if a[i].Score != b[i].Score {
			t.Fatalf("window %d: scores differ after reload", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load([]byte("nope")); err == nil {
		t.Error("garbage bundle accepted")
	}
	if _, err := Load([]byte(`{"window":0}`)); err == nil {
		t.Error("zero-window bundle accepted")
	}
}

func TestTrainDeterministic(t *testing.T) {
	benign, _, _ := fixtures(t)
	short := benign[:200]
	m1, err := Train(short, TrainOptions{Epochs: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(short, TrainOptions{Epochs: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if m1.AEThreshold != m2.AEThreshold || m1.LSTMThreshold != m2.LSTMThreshold {
		t.Errorf("thresholds differ across identical trainings: %g/%g vs %g/%g",
			m1.AEThreshold, m1.LSTMThreshold, m2.AEThreshold, m2.LSTMThreshold)
	}
}

// TestFixtureBundleBytes pins the shared fixture's bundle byte for byte:
// a change to a training default, the fit or the engine that calibrates
// the thresholds moves this hash (DESIGN §7.2).
func TestFixtureBundleBytes(t *testing.T) {
	_, _, models := fixtures(t)
	b, err := models.Save()
	if err != nil {
		t.Fatal(err)
	}
	const want = "19969409801d7f768b7144ee14bbc9cd419bf15389a38f0bed6674902ef24e8c"
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
		t.Errorf("sha256(fixture bundle) = %s, want %s", got, want)
	}
}
