package mobiwatch

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/detect"
	"github.com/6g-xsec/xsec/internal/feature"
	"github.com/6g-xsec/xsec/internal/nn"
)

// TestConcurrentBundleScoring scores one shared bundle from many
// goroutines, each with its own pendingBatch over the shared engine pair
// — the sharded xApp's shape. Under -race this proves the engines are
// read-only during inference.
func TestConcurrentBundleScoring(t *testing.T) {
	_, mixed, models := fixtures(t)
	want := models.ScoreTraceAEBatched(mixed.Trace, nn.Float32)
	if len(want) == 0 {
		t.Fatal("no windows")
	}

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := models.ScoreTraceAEBatched(mixed.Trace, nn.Float32)
			for i := range want {
				if got[i] != want[i] {
					errs <- "concurrent AE score diverged"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestScoreWindowZeroAllocs proves steady-state batch scoring — push a
// batch of windows, score it, reset — does not touch the heap once the
// batch's buffers have grown.
func TestScoreWindowZeroAllocs(t *testing.T) {
	_, mixed, models := fixtures(t)
	rows := feature.NewRowBuffer(models.RecordDim())
	e := feature.NewEncoder(models.Vocab)
	for _, r := range mixed.Trace[:64] {
		rows.Push(e, r)
	}
	for _, model := range []ModelName{ModelAE, ModelLSTM} {
		b := newPendingBatch(models, model)
		pass := func() {
			for i := 0; i+b.span() <= rows.Len(); i++ {
				b.push(rows, i)
			}
			b.score()
			b.reset()
		}
		pass() // grow the batch and the engine scratch
		if n := testing.AllocsPerRun(100, pass); n != 0 {
			t.Errorf("%s: a steady-state batch allocates %v/op, want 0", model, n)
		}
	}
}

// TestCalibrateMatchesPercentileThreshold cross-checks the sort-once
// calibration against the legacy per-percentile path.
func TestCalibrateMatchesPercentileThreshold(t *testing.T) {
	benign, _, models := fixtures(t)
	scores := windowScores(models.ScoreTraceAEBatched(benign, nn.Float32))
	thr, quants := calibrate(scores, 99)
	if want := detect.PercentileThreshold(scores, 99); thr != want {
		t.Errorf("calibrate threshold = %g, PercentileThreshold = %g", thr, want)
	}
	if len(quants) != 101 {
		t.Fatalf("quantile table has %d entries, want 101", len(quants))
	}
	for p := 1; p <= 100; p++ {
		if want := detect.PercentileThreshold(scores, float64(p)); quants[p] != want {
			t.Errorf("quantile[%d] = %g, PercentileThreshold = %g", p, quants[p], want)
		}
	}
	// Calibration feeds SetPercentile: re-fitting at the stored
	// percentile must reproduce the fitted threshold.
	if models.AEThreshold != models.AEQuantiles[99] {
		t.Errorf("stored AE threshold %g != 99th quantile %g", models.AEThreshold, models.AEQuantiles[99])
	}
}

// TestTrainFitsSideBySide pins what fitting the two models concurrently
// must not change: the bundle is byte for byte the one that fitting them
// in turn produces, on one CPU (where the two fits merely interleave)
// and on two, and Train never returns with a fit — or any goroutine of
// one — still running.
func TestTrainFitsSideBySide(t *testing.T) {
	benign, err := dataset.GenerateBenign(dataset.BenignConfig{Sessions: 20, Fleet: 5, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	// A one-unit-wide autoencoder fits long before the LSTM does, so a
	// Train that did not wait for the fit on the other goroutine would
	// calibrate and return a half-trained LSTM.
	opts := TrainOptions{Epochs: 2, Seed: 9, Hidden: []int{1}}
	ref, err := train(benign, opts, func(fitAE, fitLSTM func() error) (error, error) {
		return fitAE(), fitLSTM()
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Save()
	if err != nil {
		t.Fatal(err)
	}

	// A pool goroutine that has signalled its WaitGroup may not have left
	// the scheduler's count yet, so give the count a moment to settle.
	settles := func(want int) bool {
		for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if runtime.NumGoroutine() <= want {
				return true
			}
		}
		return false
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		before := runtime.NumGoroutine()
		m, err := Train(benign, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !settles(before) {
			t.Errorf("GOMAXPROCS=%d: %d goroutines after Train, %d before", procs, runtime.NumGoroutine(), before)
		}
		got, err := m.Save()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("GOMAXPROCS=%d: side-by-side bundle differs from fitting in turn (thresholds %v/%v vs %v/%v)",
				procs, m.AEThreshold, m.LSTMThreshold, ref.AEThreshold, ref.LSTMThreshold)
		}
	}

	// A trace that cannot fill one window is refused before either fit
	// starts.
	before := runtime.NumGoroutine()
	if _, err := Train(benign[:ref.Window], opts); err == nil {
		t.Error("a trace that cannot fill one window trained")
	}
	if !settles(before) {
		t.Errorf("%d goroutines after a refused Train, %d before", runtime.NumGoroutine(), before)
	}

	// One fit failing does not cut the other short, whichever fails: the
	// other is let go only once it has started and the failing one is
	// returning, and must have finished when sideBySide returns.
	for _, failing := range []string{"autoencoder", "lstm"} {
		boom := errors.New(failing)
		started, failed, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
		finished := false
		fail := func() error {
			close(failed)
			return boom
		}
		slow := func() error {
			close(started)
			<-release
			finished = true
			return nil
		}
		go func() {
			<-started
			<-failed
			close(release)
		}()
		fitAE, fitLSTM := fail, slow
		if failing == "lstm" {
			fitAE, fitLSTM = slow, fail
		}
		aeErr, lstmErr := sideBySide(fitAE, fitLSTM)
		if !finished {
			t.Errorf("%s fit failed: sideBySide returned with the other fit still running", failing)
		}
		if (aeErr == boom) != (failing == "autoencoder") || (lstmErr == boom) != (failing == "lstm") {
			t.Errorf("%s fit failed: sideBySide returned %v, %v", failing, aeErr, lstmErr)
		}
	}
}

// BenchmarkTrainBundle measures Train end to end — vectorise, both fits,
// calibration — for one epoch on generated benign telemetry, at the
// session's GOMAXPROCS.
func BenchmarkTrainBundle(b *testing.B) {
	benign, err := dataset.GenerateBenign(dataset.BenignConfig{Sessions: 60, Fleet: 10, Seed: 21})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Train(benign, TrainOptions{Epochs: 1, Seed: 5}); err != nil {
			b.Fatal(err)
		}
	}
}
