package bench

import (
	"fmt"
	"strings"

	"github.com/6g-xsec/xsec/internal/detect"
	"github.com/6g-xsec/xsec/internal/feature"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/nn"
)

// AblationRow is one configuration's outcome.
type AblationRow struct {
	Param string
	// BenignAccuracy: fraction of benign training windows below the
	// fitted threshold (1 − training FPR).
	BenignAccuracy float64
	// Attack metrics on the mixed dataset (AE).
	Precision float64
	Recall    float64
	F1        float64
	// EventRecall: attack events with ≥1 flagged window.
	EventRecall float64
}

// AblationResult is a parameter sweep.
type AblationResult struct {
	Name string
	Rows []AblationRow
}

// Format renders the sweep.
func (r *AblationResult) Format() string {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Param, pct(row.BenignAccuracy), pct(row.Precision),
			pct(row.Recall), pct(row.F1), pct(row.EventRecall),
		})
	}
	return fmt.Sprintf("Ablation: %s\n\n%s", r.Name,
		formatTable([]string{r.Name, "BenignAcc", "Precision", "Recall", "F1", "EventRecall"}, rows))
}

// evaluateModels computes the ablation metrics for a trained bundle.
func evaluateModels(env *Env, models *mobiwatch.Models) AblationRow {
	scores := models.ScoreTraceAEBatched(env.Mixed.Trace, nn.Float32)
	labels := feature.WindowLabels(env.Mixed.Malicious, models.Window)
	pred := make([]bool, len(scores))
	for i, s := range scores {
		pred[i] = s.Anomalous
	}
	conf := detect.Evaluate(pred, labels)

	benignScores := models.ScoreTraceAEBatched(env.Benign, nn.Float32)
	below := 0
	for _, s := range benignScores {
		if !s.Anomalous {
			below++
		}
	}
	benignAcc := 0.0
	if len(benignScores) > 0 {
		benignAcc = float64(below) / float64(len(benignScores))
	}
	return AblationRow{
		BenignAccuracy: benignAcc,
		Precision:      conf.Precision(),
		Recall:         conf.Recall(),
		F1:             conf.F1(),
		EventRecall:    eventRecall(env, scores, models.Window),
	}
}

// AblationWindowSize sweeps the sliding-window size N.
func AblationWindowSize(cfg Config, sizes []int) (*AblationResult, error) {
	cfg.defaults()
	env, err := BuildEnv(cfg)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Name: "Window size N"}
	for _, n := range sizes {
		models, err := mobiwatch.Train(env.Benign, mobiwatch.TrainOptions{
			Window: n, Percentile: cfg.Percentile, Epochs: cfg.Epochs, Seed: cfg.Seed + 2,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: window %d: %w", n, err)
		}
		row := evaluateModels(env, models)
		row.Param = fmt.Sprintf("N=%d", n)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// AblationThreshold sweeps the threshold percentile on the shared trained
// model, tracing the benign-accuracy / recall trade-off the paper's 99%
// choice sits on.
func AblationThreshold(cfg Config, percentiles []float64) (*AblationResult, error) {
	cfg.defaults()
	env, err := BuildEnv(cfg)
	if err != nil {
		return nil, err
	}
	// Training-score distribution for refitting thresholds.
	vecs := feature.Vectorize(env.Benign, env.Models.Vocab)
	wins := feature.WindowsAE(vecs, cfg.Window)
	trainScores := make([]float64, len(wins))
	for i, w := range wins {
		trainScores[i] = env.Models.ScoreAEWindow(w)
	}

	res := &AblationResult{Name: "Threshold percentile"}
	base := *env.Models
	for _, p := range percentiles {
		models := base
		models.AEThreshold = detect.PercentileThreshold(trainScores, p)
		row := evaluateModels(env, &models)
		row.Param = fmt.Sprintf("p%.1f", p)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// AblationBottleneck sweeps the autoencoder bottleneck width.
func AblationBottleneck(cfg Config, widths []int) (*AblationResult, error) {
	cfg.defaults()
	env, err := BuildEnv(cfg)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{Name: "AE bottleneck width"}
	for _, w := range widths {
		models, err := mobiwatch.Train(env.Benign, mobiwatch.TrainOptions{
			Window: cfg.Window, Percentile: cfg.Percentile,
			Hidden: []int{64, w}, Epochs: cfg.Epochs, Seed: cfg.Seed + 2,
		})
		if err != nil {
			return nil, fmt.Errorf("bench: bottleneck %d: %w", w, err)
		}
		row := evaluateModels(env, models)
		row.Param = fmt.Sprintf("%d", w)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// FormatAll runs every experiment at cfg and concatenates the artifacts —
// the `xsec-bench -all` output.
func FormatAll(cfg Config) (string, error) {
	var b strings.Builder
	b.WriteString(Table1())
	b.WriteString("\n\n")

	fig2, err := Figure2(cfg)
	if err != nil {
		return "", err
	}
	b.WriteString(fig2)
	b.WriteString("\n\n")

	t2, err := RunTable2(cfg)
	if err != nil {
		return "", err
	}
	b.WriteString(t2.Format())
	b.WriteString("\n\n")

	f4, err := RunFigure4(cfg)
	if err != nil {
		return "", err
	}
	b.WriteString(f4.Format())
	b.WriteString("\n\n")

	t3, err := RunTable3(cfg)
	if err != nil {
		return "", err
	}
	b.WriteString(t3.Format())
	b.WriteString("\n\n")

	f5, err := Figure5(cfg)
	if err != nil {
		return "", err
	}
	b.WriteString(f5)
	return b.String(), nil
}
