package mobiwatch

import (
	"github.com/6g-xsec/xsec/internal/feature"
	"github.com/6g-xsec/xsec/internal/mobiflow"
)

// This file is the float64 reference scorer: the trained models' own
// forward pass, one window at a time. Nothing ships it — the xApp,
// calibration and the paper artefacts all score through the batched
// float32 engine — but the engine's divergence is bounded against it.

// ScoreTraceAE scores every window of a trace with the float64
// autoencoder: the worst per-record reconstruction MSE of the jointly
// reconstructed window, as the engine's fused error pass computes it.
func (m *Models) ScoreTraceAE(tr mobiflow.Trace) []WindowScore {
	wins := feature.WindowsAE(feature.Vectorize(tr, m.Vocab), m.Window)
	dim := m.RecordDim()
	out := make([]WindowScore, len(wins))
	for i, w := range wins {
		sc := worstRecordMSE(m.AE.Reconstruct(w), w, dim)
		out[i] = WindowScore{Index: i, Score: sc, Threshold: m.AEThreshold, Anomalous: sc > m.AEThreshold, Model: ModelAE}
	}
	return out
}

// ScoreTraceLSTM scores every (window, next) pair of a trace with the
// float64 LSTM's next-record prediction MSE.
func (m *Models) ScoreTraceLSTM(tr mobiflow.Trace) []WindowScore {
	wins, nexts := feature.WindowsLSTM(feature.Vectorize(tr, m.Vocab), m.Window)
	out := make([]WindowScore, len(wins))
	for i := range wins {
		sc := m.LSTM.Score(wins[i], nexts[i])
		out[i] = WindowScore{Index: i, Score: sc, Threshold: m.LSTMThreshold, Anomalous: sc > m.LSTMThreshold, Model: ModelLSTM}
	}
	return out
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
