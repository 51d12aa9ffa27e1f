// Package detect implements the decision layer of MobiWatch (§3.2 and §4.1
// of the paper): anomaly scores (autoencoder reconstruction error or LSTM
// prediction error) are compared against a threshold chosen as a high
// percentile of the training-set scores — the paper uses the 99th
// percentile, "assuming 1% outliers within the training set caused by
// network noise" — and the resulting binary decisions are evaluated with
// accuracy / precision / recall / F1.
package detect

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// PercentileThreshold returns the pct-th percentile (0 < pct <= 100) of
// scores, using linear interpolation between order statistics. It panics
// on empty input or out-of-range pct, which indicate programmer error.
func PercentileThreshold(scores []float64, pct float64) float64 {
	if len(scores) == 0 {
		panic("detect: PercentileThreshold on empty scores")
	}
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	return SortedPercentile(sorted, pct)
}

// SortedPercentile is PercentileThreshold over an already ascending-
// sorted slice. Callers that need many percentiles of one distribution
// (threshold calibration derives 101) sort once and query this instead
// of paying a copy + O(n log n) sort per percentile.
func SortedPercentile(sorted []float64, pct float64) float64 {
	if len(sorted) == 0 {
		panic("detect: SortedPercentile on empty scores")
	}
	if pct <= 0 || pct > 100 {
		panic(fmt.Sprintf("detect: percentile %v out of (0,100]", pct))
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := pct / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Confusion is a binary confusion matrix with "anomalous" as the positive
// class.
type Confusion struct {
	TP, FP, TN, FN int
}

// Evaluate compares predictions against ground truth.
func Evaluate(pred, truth []bool) Confusion {
	if len(pred) != len(truth) {
		panic(fmt.Sprintf("detect: Evaluate length mismatch %d vs %d", len(pred), len(truth)))
	}
	var c Confusion
	for i := range pred {
		switch {
		case pred[i] && truth[i]:
			c.TP++
		case pred[i] && !truth[i]:
			c.FP++
		case !pred[i] && truth[i]:
			c.FN++
		default:
			c.TN++
		}
	}
	return c
}

// Total returns the number of evaluated samples.
func (c Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Accuracy is the fraction of correct decisions.
func (c Confusion) Accuracy() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(c.Total())
}

// Precision is TP / (TP + FP); 0 when nothing was flagged.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall is TP / (TP + FN); 0 when there are no positives.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 is the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// String renders the matrix compactly.
func (c Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d acc=%.2f%% prec=%.2f%% rec=%.2f%% f1=%.2f%%",
		c.TP, c.FP, c.TN, c.FN, 100*c.Accuracy(), 100*c.Precision(), 100*c.Recall(), 100*c.F1())
}

// Scorer is the model-side contract: a fitted model scores one window.
type Scorer interface {
	Score(x []float64) float64
}

// ScorerFunc adapts a function to Scorer.
type ScorerFunc func(x []float64) float64

// Score implements Scorer.
func (f ScorerFunc) Score(x []float64) float64 { return f(x) }

// ScoreAll applies a scorer to every window.
func ScoreAll(s Scorer, windows [][]float64) []float64 {
	out := make([]float64, len(windows))
	for i, w := range windows {
		out[i] = s.Score(w)
	}
	return out
}

// FoldResult reports one cross-validation fold on benign data.
type FoldResult struct {
	// Threshold is the percentile threshold fitted on the fold's
	// training scores.
	Threshold float64
	// Accuracy is the fraction of held-out benign windows below the
	// threshold (1 − false-positive rate).
	Accuracy float64
	// TestSize is the number of held-out windows.
	TestSize int
}

// Fit trains a model on benign windows and returns a scorer for new
// windows.
type Fit func(train [][]float64) Scorer

// KFoldBenign runs k-fold cross-validation on a benign-only dataset: each
// fold trains on k−1 parts, fits the percentile threshold on its own
// training scores, and measures how many held-out benign windows stay
// below it — the paper's "benign dataset accuracy" (Table 2, cross-
// validated).
func KFoldBenign(data [][]float64, k int, seed int64, pct float64, fit Fit) ([]FoldResult, error) {
	if k < 2 {
		return nil, fmt.Errorf("detect: k-fold needs k >= 2, got %d", k)
	}
	if len(data) < k {
		return nil, fmt.Errorf("detect: %d samples cannot fill %d folds", len(data), k)
	}
	idx := rand.New(rand.NewSource(seed)).Perm(len(data))
	results := make([]FoldResult, 0, k)
	for fold := 0; fold < k; fold++ {
		var train, test [][]float64
		for i, id := range idx {
			if i%k == fold {
				test = append(test, data[id])
			} else {
				train = append(train, data[id])
			}
		}
		scorer := fit(train)
		thr := PercentileThreshold(ScoreAll(scorer, train), pct)
		var below int
		for _, w := range test {
			if scorer.Score(w) <= thr {
				below++
			}
		}
		results = append(results, FoldResult{
			Threshold: thr,
			Accuracy:  float64(below) / float64(len(test)),
			TestSize:  len(test),
		})
	}
	return results, nil
}

// MeanAccuracy averages fold accuracies weighted by test size.
func MeanAccuracy(folds []FoldResult) float64 {
	var sum float64
	var n int
	for _, f := range folds {
		sum += f.Accuracy * float64(f.TestSize)
		n += f.TestSize
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
