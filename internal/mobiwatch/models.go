// Package mobiwatch implements the MOBIWATCH xApp (§3.2 of the paper):
// unsupervised deep-learning anomaly detection over MOBIFLOW telemetry.
// Two models trained only on benign traffic score sliding windows — an
// autoencoder by reconstruction error and an LSTM by next-entry
// prediction error — against a high-percentile threshold fitted on the
// training scores. Windows above threshold are flagged and handed to the
// LLM Analyzer for expert referencing.
package mobiwatch

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/6g-xsec/xsec/internal/detect"
	"github.com/6g-xsec/xsec/internal/feature"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/nn"
)

// TrainOptions parameterizes offline model fitting (the SMO "Train"
// stage of Figure 3).
type TrainOptions struct {
	// Window is the sliding-window size N (default 4).
	Window int
	// Percentile is the threshold percentile over training scores
	// (default 99, the paper's choice assuming 1% training noise).
	Percentile float64
	// Hidden are the autoencoder encoder widths (default {64, 16}).
	Hidden []int
	// Epochs (default 40) and LR (default 3e-3) drive both models.
	Epochs int
	LR     float64
	// Seed makes training deterministic.
	Seed int64
}

// lstmHidden is the LSTM hidden width.
const lstmHidden = 32

func (o *TrainOptions) defaults() {
	if o.Window == 0 {
		o.Window = 4
	}
	if o.Percentile == 0 {
		o.Percentile = 99
	}
	if len(o.Hidden) == 0 {
		o.Hidden = []int{64, 16}
	}
	if o.Epochs == 0 {
		o.Epochs = 40
	}
	if o.LR == 0 {
		o.LR = 3e-3
	}
}

// Models is a deployable MobiWatch model bundle: both detectors, the
// shared vocabulary, the window size, and the fitted thresholds.
type Models struct {
	Vocab  *feature.Vocabulary
	Window int

	AE          *nn.Autoencoder
	AEThreshold float64

	LSTM          *nn.LSTM
	LSTMThreshold float64

	// AEQuantiles / LSTMQuantiles are the training-score quantiles
	// (index = percentile 0..100). They let an A1 policy re-threshold a
	// deployed model at a different percentile without retraining.
	AEQuantiles   []float64
	LSTMQuantiles []float64

	// engines caches the lazily built reduced-precision inference
	// engines shared by every scoring worker (see Engines). It lives
	// behind a pointer — set at construction — so a Models value can be
	// shallow-copied (the tests do, to vary thresholds).
	engines *engineCache
}

// engineCache holds built inference engines, keyed by precision.
type engineCache struct {
	mu    sync.Mutex
	byPre map[nn.Precision]*FastEngines
}

// calibrate fits a percentile threshold and the 0..100 quantile table
// from one score distribution, sorting it exactly once (the quantile
// table alone needs 101 percentile queries).
func calibrate(scores []float64, pct float64) (threshold float64, quants []float64) {
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	quants = make([]float64, 101)
	for p := 0; p <= 100; p++ {
		q := float64(p)
		if q == 0 {
			q = 0.001 // SortedPercentile requires pct > 0
		}
		quants[p] = detect.SortedPercentile(sorted, q)
	}
	return detect.SortedPercentile(sorted, pct), quants
}

// SetPercentile re-fits both detection thresholds at a new percentile of
// the stored training-score distribution (the A1 threshold policy).
func (m *Models) SetPercentile(pct float64) error {
	if pct <= 0 || pct > 100 {
		return fmt.Errorf("mobiwatch: percentile %v out of (0,100]", pct)
	}
	if len(m.AEQuantiles) != 101 || len(m.LSTMQuantiles) != 101 {
		return fmt.Errorf("mobiwatch: bundle has no stored quantiles (trained before this feature?)")
	}
	interp := func(q []float64) float64 {
		lo := int(pct)
		if lo >= 100 {
			return q[100]
		}
		frac := pct - float64(lo)
		return q[lo]*(1-frac) + q[lo+1]*frac
	}
	m.AEThreshold = interp(m.AEQuantiles)
	m.LSTMThreshold = interp(m.LSTMQuantiles)
	return nil
}

// Train fits both models on a benign telemetry trace and calibrates the
// detection thresholds (§4.1: "we select a 99% percentile threshold
// among the reconstruction errors").
//
// The two fits share nothing but the read-only feature vectors, so they
// run side by side: each mini-batch ends in a serial reduce-and-step
// tail, and one model's tail overlaps the other's sharded pass. Each fit
// keeps its own seeds and its own fixed shard layout, so the bundle is
// the one fitting them in turn produces, whatever GOMAXPROCS is.
func Train(benign mobiflow.Trace, opts TrainOptions) (*Models, error) {
	return train(benign, opts, sideBySide)
}

// sideBySide runs the two fits at once, the LSTM's on a second
// goroutine, and returns only after both have: a fit left running would
// go on writing a model nobody holds.
func sideBySide(fitAE, fitLSTM func() error) (aeErr, lstmErr error) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		lstmErr = fitLSTM()
	}()
	aeErr = fitAE()
	<-done
	return aeErr, lstmErr
}

// train is Train with the scheduling of the two fits handed in, so that
// a test can fit them in turn and hold Train's bundle to the result.
func train(benign mobiflow.Trace, opts TrainOptions, run func(fitAE, fitLSTM func() error) (aeErr, lstmErr error)) (*Models, error) {
	opts.defaults()
	if len(benign) <= opts.Window {
		return nil, fmt.Errorf("mobiwatch: %d records cannot fill window %d", len(benign), opts.Window)
	}
	vocab := feature.BuildVocabulary(benign)
	vecs := feature.Vectorize(benign, vocab)
	dim := len(vecs[0])
	cfg := func(seed int64) nn.TrainConfig {
		return nn.TrainConfig{Epochs: opts.Epochs, BatchSize: 16, LR: opts.LR, Seed: seed}
	}

	// Autoencoder on flattened windows; LSTM next-entry prediction.
	winAE := feature.WindowsAE(vecs, opts.Window)
	ae := nn.NewAutoencoder(nn.AEConfig{InputDim: dim * opts.Window, Hidden: opts.Hidden, Seed: opts.Seed})
	winL, nexts := feature.WindowsLSTM(vecs, opts.Window)
	lstm := nn.NewLSTM(opts.Seed+2, dim, lstmHidden, dim)
	aeErr, lstmErr := run(
		func() error { _, err := ae.Train(winAE, cfg(opts.Seed+1)); return err },
		func() error { _, err := lstm.TrainNextStep(winL, nexts, cfg(opts.Seed+3)); return err },
	)
	if aeErr != nil {
		return nil, fmt.Errorf("mobiwatch: training autoencoder: %w", aeErr)
	}
	if lstmErr != nil {
		return nil, fmt.Errorf("mobiwatch: training lstm: %w", lstmErr)
	}

	m := &Models{
		Vocab:   vocab,
		Window:  opts.Window,
		AE:      ae,
		LSTM:    lstm,
		engines: &engineCache{},
	}
	m.CalibrateThresholds(winAE, winL, nexts, opts.Percentile)
	return m, nil
}

// CalibrateThresholds re-scores the given benign windows with both
// models — across a worker pool — and fits the detection thresholds and
// quantile tables at the given percentile. Train calls it after
// fitting; callers can re-invoke it to recalibrate a deployed bundle on
// fresh benign telemetry without retraining.
func (m *Models) CalibrateThresholds(winAE [][]float64, winL [][][]float64, nexts [][]float64, pct float64) {
	dim := m.RecordDim()
	aeScores := make([]float64, len(winAE))
	m.forEachWindow(len(winAE), func(s *ScoreScratch, i int) {
		aeScores[i] = aeWindowScoreWith(m.AE, s.AE, winAE[i], dim)
	})
	lstmScores := make([]float64, len(winL))
	m.forEachWindow(len(winL), func(s *ScoreScratch, i int) {
		lstmScores[i] = m.LSTM.ScoreWith(s.LSTM, winL[i], nexts[i])
	})
	m.AEThreshold, m.AEQuantiles = calibrate(aeScores, pct)
	m.LSTMThreshold, m.LSTMQuantiles = calibrate(lstmScores, pct)
}

// bundleJSON is the serialized model bundle for the SMO registry.
type bundleJSON struct {
	Messages      []string        `json:"messages"`
	Window        int             `json:"window"`
	AE            json.RawMessage `json:"autoencoder"`
	AEThreshold   float64         `json:"ae_threshold"`
	LSTM          json.RawMessage `json:"lstm"`
	LSTMThreshold float64         `json:"lstm_threshold"`
	AEQuantiles   []float64       `json:"ae_quantiles,omitempty"`
	LSTMQuantiles []float64       `json:"lstm_quantiles,omitempty"`
}

// Save serializes the bundle for deployment.
func (m *Models) Save() ([]byte, error) {
	aeData, err := m.AE.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("mobiwatch: saving autoencoder: %w", err)
	}
	lstmData, err := m.LSTM.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("mobiwatch: saving lstm: %w", err)
	}
	return json.Marshal(bundleJSON{
		Messages:      m.Vocab.Messages,
		Window:        m.Window,
		AE:            aeData,
		AEThreshold:   m.AEThreshold,
		LSTM:          lstmData,
		LSTMThreshold: m.LSTMThreshold,
		AEQuantiles:   m.AEQuantiles,
		LSTMQuantiles: m.LSTMQuantiles,
	})
}

// Load reconstructs a bundle produced by Save.
func Load(data []byte) (*Models, error) {
	var b bundleJSON
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("mobiwatch: parsing bundle: %w", err)
	}
	if b.Window <= 0 {
		return nil, fmt.Errorf("mobiwatch: bundle has window %d", b.Window)
	}
	ae, err := nn.LoadAutoencoder(b.AE)
	if err != nil {
		return nil, fmt.Errorf("mobiwatch: loading autoencoder: %w", err)
	}
	lstm, err := nn.LoadLSTM(b.LSTM)
	if err != nil {
		return nil, fmt.Errorf("mobiwatch: loading lstm: %w", err)
	}
	return &Models{
		Vocab:         feature.NewVocabulary(b.Messages),
		Window:        b.Window,
		AE:            ae,
		AEThreshold:   b.AEThreshold,
		LSTM:          lstm,
		LSTMThreshold: b.LSTMThreshold,
		AEQuantiles:   b.AEQuantiles,
		LSTMQuantiles: b.LSTMQuantiles,
		engines:       &engineCache{},
	}, nil
}

// ModelName selects which detector scored a window.
type ModelName string

// Detector names.
const (
	ModelAE   ModelName = "autoencoder"
	ModelLSTM ModelName = "lstm"
)

// WindowScore is one scored sliding window.
type WindowScore struct {
	// Index is the window's position (aligned with feature.WindowsAE /
	// WindowsLSTM output for the scored trace).
	Index int
	// Score is the anomaly score; Threshold the calibrated cut.
	Score     float64
	Threshold float64
	// Anomalous = Score > Threshold.
	Anomalous bool
	Model     ModelName
}

// ScoreScratch is a per-goroutine workspace for scoring windows against
// a Models bundle. The bundle itself is read-only after training, so N
// goroutines can score the same bundle concurrently given N scratches;
// steady-state scoring through a scratch performs no heap allocation.
type ScoreScratch struct {
	AE   *nn.AEScratch
	LSTM *nn.LSTMScratch
}

// NewScoreScratch allocates a workspace sized for both detectors.
func (m *Models) NewScoreScratch() *ScoreScratch {
	return &ScoreScratch{AE: m.AE.NewScratch(), LSTM: m.LSTM.NewScratch()}
}

// aeWindowScoreWith scores one flattened window: the window is
// reconstructed jointly, and the score is the worst per-record
// reconstruction MSE. The max-aggregation avoids diluting a single
// strongly anomalous entry across the whole window (cf. per-timestamp
// error aggregation in the multivariate anomaly-detection literature
// the paper builds on).
func aeWindowScoreWith(ae *nn.Autoencoder, s *nn.AEScratch, flat []float64, recordDim int) float64 {
	return worstRecordMSE(ae.ReconstructWith(s, flat), flat, recordDim)
}

// worstRecordMSE returns the maximum per-record reconstruction MSE.
func worstRecordMSE(recon, flat []float64, recordDim int) float64 {
	worst := 0.0
	for off := 0; off+recordDim <= len(flat); off += recordDim {
		var sum float64
		for i := off; i < off+recordDim; i++ {
			d := recon[i] - flat[i]
			sum += d * d
		}
		if mse := sum / float64(recordDim); mse > worst {
			worst = mse
		}
	}
	return worst
}

// RecordDim returns the per-record feature dimension of the bundle.
func (m *Models) RecordDim() int { return feature.Dim(m.Vocab) }

// ScoreAEWindow scores one flattened window with the autoencoder using
// the model's default workspace (single-threaded convenience API).
func (m *Models) ScoreAEWindow(flat []float64) float64 {
	return worstRecordMSE(m.AE.Reconstruct(flat), flat, m.RecordDim())
}

// ScoreAEWindowWith scores one flattened window through the given
// workspace; safe to call from many goroutines with distinct scratches.
func (m *Models) ScoreAEWindowWith(s *ScoreScratch, flat []float64) float64 {
	return aeWindowScoreWith(m.AE, s.AE, flat, m.RecordDim())
}

// scoreChunk is how many windows a pool worker claims at a time —
// coarse enough to amortize the atomic fetch, fine enough to balance
// tail latency across workers.
const scoreChunk = 16

// seqScoreCutoff is the window count below which the pool is not worth
// its goroutine startup cost and scoring stays on the calling goroutine.
const seqScoreCutoff = 2 * scoreChunk

// forEachWindow invokes fn(scratch, i) for every window index in [0, n),
// fanning out over a GOMAXPROCS-sized worker pool with one ScoreScratch
// per worker. Every index is computed independently into its own output
// slot, so results are identical to a sequential pass regardless of
// scheduling.
func (m *Models) forEachWindow(n int, fn func(s *ScoreScratch, i int)) {
	workers := min(runtime.GOMAXPROCS(0), (n+scoreChunk-1)/scoreChunk)
	// On a single schedulable CPU the pool cannot overlap any work; its
	// goroutine startup and atomic traffic are pure overhead, so score
	// inline.
	if workers <= 1 || n < seqScoreCutoff {
		s := m.NewScoreScratch()
		for i := 0; i < n; i++ {
			fn(s, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			s := m.NewScoreScratch()
			for {
				base := int(next.Add(scoreChunk)) - scoreChunk
				if base >= n {
					return
				}
				end := base + scoreChunk
				if end > n {
					end = n
				}
				for i := base; i < end; i++ {
					fn(s, i)
				}
			}
		}()
	}
	wg.Wait()
}

// ScoreTraceAE scores every window of a trace with the scalar float64
// autoencoder — the reference the batched engines are tested against —
// fanning the windows out over the worker pool. Scores are identical for
// every GOMAXPROCS.
func (m *Models) ScoreTraceAE(tr mobiflow.Trace) []WindowScore {
	vecs := feature.Vectorize(tr, m.Vocab)
	wins := feature.WindowsAE(vecs, m.Window)
	dim := m.RecordDim()
	out := make([]WindowScore, len(wins))
	m.forEachWindow(len(wins), func(s *ScoreScratch, i int) {
		sc := aeWindowScoreWith(m.AE, s.AE, wins[i], dim)
		out[i] = WindowScore{Index: i, Score: sc, Threshold: m.AEThreshold, Anomalous: sc > m.AEThreshold, Model: ModelAE}
	})
	return out
}

// ScoreTraceLSTM scores every (window, next) pair with the scalar
// float64 LSTM, fanning the windows out over the worker pool. Scores are
// identical for every GOMAXPROCS.
func (m *Models) ScoreTraceLSTM(tr mobiflow.Trace) []WindowScore {
	vecs := feature.Vectorize(tr, m.Vocab)
	wins, nexts := feature.WindowsLSTM(vecs, m.Window)
	out := make([]WindowScore, len(wins))
	m.forEachWindow(len(wins), func(s *ScoreScratch, i int) {
		sc := m.LSTM.ScoreWith(s.LSTM, wins[i], nexts[i])
		out[i] = WindowScore{Index: i, Score: sc, Threshold: m.LSTMThreshold, Anomalous: sc > m.LSTMThreshold, Model: ModelLSTM}
	})
	return out
}
