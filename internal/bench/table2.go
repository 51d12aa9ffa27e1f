package bench

import (
	"fmt"
	"strings"

	"github.com/6g-xsec/xsec/internal/detect"
	"github.com/6g-xsec/xsec/internal/feature"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/nn"
)

// Table2Row is one line of the paper's Table 2.
type Table2Row struct {
	Dataset   string // "Benign" or "Attack"
	Model     string // "Autoencoder" or "LSTM"
	Accuracy  float64
	Precision float64
	Recall    float64 // NaN-like: RecallNA true on the benign rows
	F1        float64
	NA        bool // recall/F1 not applicable (benign-only data)
}

// Table2Result reproduces Table 2 plus the event-level detection rates
// the xApp pipeline operates on.
type Table2Result struct {
	Rows []Table2Row
	// EventRecallAE / EventRecallLSTM: fraction of attack events with
	// at least one flagged window (the paper's "100% detection rate").
	EventRecallAE   float64
	EventRecallLSTM float64
}

// RunTable2 reproduces Table 2: benign cross-validated accuracy for both
// models, and full metrics on the attack dataset.
func RunTable2(cfg Config) (*Table2Result, error) {
	cfg.defaults()
	env, err := BuildEnv(cfg)
	if err != nil {
		return nil, err
	}
	res := &Table2Result{}

	// --- Benign rows: k-fold cross-validation, retraining per fold.
	vocab := env.Models.Vocab
	vecs := feature.Vectorize(env.Benign, vocab)
	winsAE := feature.WindowsAE(vecs, cfg.Window)
	dim := len(vecs[0])

	foldSeed := cfg.Seed + 100
	aeFolds, err := detect.KFoldBenign(winsAE, cfg.Folds, foldSeed, cfg.Percentile, func(train [][]float64) detect.Scorer {
		ae := nn.NewAutoencoder(nn.AEConfig{InputDim: dim * cfg.Window, Hidden: []int{64, 16}, Seed: foldSeed})
		ae.Train(train, nn.TrainConfig{Epochs: cfg.Epochs / 2, BatchSize: 16, LR: 3e-3, Seed: foldSeed})
		return detect.ScorerFunc(func(x []float64) float64 { return ae.Score(x) })
	})
	if err != nil {
		return nil, err
	}
	aeBenign := detect.MeanAccuracy(aeFolds)
	res.Rows = append(res.Rows, Table2Row{
		Dataset: "Benign", Model: "Autoencoder",
		Accuracy: aeBenign, Precision: aeBenign, NA: true,
	})

	// LSTM benign CV: windows are sequential pairs; fold over pair sets.
	winsL, nexts := feature.WindowsLSTM(vecs, cfg.Window)
	pairs := make([][]float64, len(winsL)) // flattened (window||next) for fold splitting
	for i := range winsL {
		var flat []float64
		for _, v := range winsL[i] {
			flat = append(flat, v...)
		}
		pairs[i] = append(flat, nexts[i]...)
	}
	lstmFolds, err := detect.KFoldBenign(pairs, cfg.Folds, foldSeed, cfg.Percentile, func(train [][]float64) detect.Scorer {
		l := nn.NewLSTM(foldSeed, dim, 32, dim)
		wins := make([][][]float64, len(train))
		nx := make([][]float64, len(train))
		for i, flat := range train {
			wins[i], nx[i] = unflattenPair(flat, dim, cfg.Window)
		}
		l.TrainNextStep(wins, nx, nn.TrainConfig{Epochs: cfg.Epochs / 2, BatchSize: 16, LR: 3e-3, Seed: foldSeed})
		return detect.ScorerFunc(func(flat []float64) float64 {
			w, nxt := unflattenPair(flat, dim, cfg.Window)
			return l.Score(w, nxt)
		})
	})
	if err != nil {
		return nil, err
	}
	lstmBenign := detect.MeanAccuracy(lstmFolds)
	res.Rows = append(res.Rows, Table2Row{
		Dataset: "Benign", Model: "LSTM",
		Accuracy: lstmBenign, Precision: lstmBenign, NA: true,
	})

	// --- Attack rows: the fully trained models on the mixed dataset.
	aeScores := env.Models.ScoreTraceAEBatched(env.Mixed.Trace, nn.Float32)
	aeLabels := feature.WindowLabels(env.Mixed.Malicious, cfg.Window)
	aePred := make([]bool, len(aeScores))
	for i, s := range aeScores {
		aePred[i] = s.Anomalous
	}
	aeConf := detect.Evaluate(aePred, aeLabels)
	res.Rows = append(res.Rows, Table2Row{
		Dataset: "Attack", Model: "Autoencoder",
		Accuracy: aeConf.Accuracy(), Precision: aeConf.Precision(),
		Recall: aeConf.Recall(), F1: aeConf.F1(),
	})

	lstmScores := env.Models.ScoreTraceLSTMBatched(env.Mixed.Trace, nn.Float32)
	lstmLabels := feature.WindowLabelsNext(env.Mixed.Malicious, cfg.Window)
	lstmPred := make([]bool, len(lstmScores))
	for i, s := range lstmScores {
		lstmPred[i] = s.Anomalous
	}
	lstmConf := detect.Evaluate(lstmPred, lstmLabels)
	res.Rows = append(res.Rows, Table2Row{
		Dataset: "Attack", Model: "LSTM",
		Accuracy: lstmConf.Accuracy(), Precision: lstmConf.Precision(),
		Recall: lstmConf.Recall(), F1: lstmConf.F1(),
	})

	res.EventRecallAE = eventRecall(env, aeScores, cfg.Window)
	res.EventRecallLSTM = eventRecall(env, lstmScores, cfg.Window+1)
	return res, nil
}

func unflattenPair(flat []float64, dim, window int) ([][]float64, []float64) {
	wins := make([][]float64, window)
	for i := 0; i < window; i++ {
		wins[i] = flat[i*dim : (i+1)*dim]
	}
	return wins, flat[window*dim:]
}

// eventRecall computes the fraction of attack events with ≥1 flagged
// window; span is the number of records a window covers.
func eventRecall(env *Env, scores []mobiwatch.WindowScore, span int) float64 {
	if len(env.Mixed.Events) == 0 {
		return 0
	}
	detected := 0
	for _, ev := range env.Mixed.Events {
		ueSet := make(map[uint64]bool, len(ev.UEIDs))
		for _, id := range ev.UEIDs {
			ueSet[id] = true
		}
		hit := false
		for _, s := range scores {
			if !s.Anomalous {
				continue
			}
			for j := s.Index; j < s.Index+span && j < len(env.Mixed.Trace); j++ {
				if ueSet[env.Mixed.Trace[j].UEID] {
					hit = true
					break
				}
			}
			if hit {
				break
			}
		}
		if hit {
			detected++
		}
	}
	return float64(detected) / float64(len(env.Mixed.Events))
}

// Format renders the result in the paper's Table 2 layout.
func (r *Table2Result) Format() string {
	var rows [][]string
	for _, row := range r.Rows {
		rec, f1 := "N/A", "N/A"
		if !row.NA {
			rec, f1 = pct(row.Recall), pct(row.F1)
		}
		rows = append(rows, []string{row.Dataset, row.Model, pct(row.Accuracy), pct(row.Precision), rec, f1})
	}
	var b strings.Builder
	b.WriteString("Table 2: Detection performance of the two deep learning models\n\n")
	b.WriteString(formatTable([]string{"Dataset", "Model", "Accuracy", "Precision", "Recall", "F1 Score"}, rows))
	fmt.Fprintf(&b, "\nEvent-level detection rate (>=1 flagged window per attack event):\n")
	fmt.Fprintf(&b, "  Autoencoder: %s   LSTM: %s\n", pct(r.EventRecallAE), pct(r.EventRecallLSTM))
	return b.String()
}
