package detect

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestPercentileThreshold(t *testing.T) {
	scores := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		pct  float64
		want float64
	}{
		{100, 10},
		{50, 5.5},
		{10, 1.9},
	}
	for _, c := range cases {
		if got := PercentileThreshold(scores, c.pct); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("pct %v = %g, want %g", c.pct, got, c.want)
		}
	}
}

func TestPercentileSingleValue(t *testing.T) {
	if got := PercentileThreshold([]float64{3.5}, 99); got != 3.5 {
		t.Errorf("got %g", got)
	}
}

func TestPercentilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { PercentileThreshold(nil, 99) },
		func() { PercentileThreshold([]float64{1}, 0) },
		func() { PercentileThreshold([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// TestSortedPercentileMatches verifies the sort-once fast path agrees
// with PercentileThreshold for every integer percentile — the contract
// threshold calibration relies on.
func TestSortedPercentileMatches(t *testing.T) {
	scores := []float64{4.2, 0.1, 9.9, 3.3, 7.5, 0.2, 5.1, 8.8, 2.4, 6.6, 1.7}
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	for p := 1; p <= 100; p++ {
		want := PercentileThreshold(scores, float64(p))
		if got := SortedPercentile(sorted, float64(p)); got != want {
			t.Errorf("pct %d: SortedPercentile = %g, PercentileThreshold = %g", p, got, want)
		}
	}
}

func TestSortedPercentilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { SortedPercentile(nil, 99) },
		func() { SortedPercentile([]float64{1}, 0) },
		func() { SortedPercentile([]float64{1}, 101) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	scores := []float64{5, 1, 3}
	PercentileThreshold(scores, 99)
	if scores[0] != 5 || scores[1] != 1 || scores[2] != 3 {
		t.Error("input mutated")
	}
}

func TestClassifyAndEvaluate(t *testing.T) {
	truth := []bool{false, true, true, true}
	pred := []bool{false, true, false, true}
	c := Evaluate(pred, truth)
	if c.TP != 2 || c.FP != 0 || c.TN != 1 || c.FN != 1 {
		t.Fatalf("confusion = %+v", c)
	}
	if got := c.Accuracy(); math.Abs(got-0.75) > 1e-9 {
		t.Errorf("accuracy = %g", got)
	}
	if got := c.Precision(); got != 1 {
		t.Errorf("precision = %g", got)
	}
	if got := c.Recall(); math.Abs(got-2.0/3) > 1e-9 {
		t.Errorf("recall = %g", got)
	}
	if got := c.F1(); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("f1 = %g", got)
	}
}

func TestConfusionEdgeCases(t *testing.T) {
	var c Confusion
	if c.Accuracy() != 0 || c.Precision() != 0 || c.Recall() != 0 || c.F1() != 0 {
		t.Error("zero confusion should yield zero metrics")
	}
	c = Confusion{TN: 10}
	if c.Accuracy() != 1 {
		t.Error("all-TN accuracy should be 1")
	}
	if c.String() == "" {
		t.Error("empty String()")
	}
}

func TestEvaluatePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	Evaluate([]bool{true}, []bool{true, false})
}

// meanScorer scores by distance from the training mean — a stand-in model
// good enough to exercise the CV plumbing.
type meanScorer struct{ mean []float64 }

func fitMean(train [][]float64) Scorer {
	mean := make([]float64, len(train[0]))
	for _, x := range train {
		for i, v := range x {
			mean[i] += v
		}
	}
	for i := range mean {
		mean[i] /= float64(len(train))
	}
	return &meanScorer{mean: mean}
}

func (m *meanScorer) Score(x []float64) float64 {
	var s float64
	for i, v := range x {
		d := v - m.mean[i]
		s += d * d
	}
	return s
}

func TestKFoldBenign(t *testing.T) {
	// Benign data clusters near the origin; CV accuracy should be high.
	var data [][]float64
	for i := 0; i < 100; i++ {
		data = append(data, []float64{float64(i%7) * 0.01, float64(i%5) * 0.01})
	}
	folds, err := KFoldBenign(data, 5, 1, 99, fitMean)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 5 {
		t.Fatalf("folds = %d", len(folds))
	}
	total := 0
	for _, f := range folds {
		total += f.TestSize
		if f.Accuracy < 0.8 {
			t.Errorf("fold accuracy %g suspiciously low", f.Accuracy)
		}
	}
	if total != len(data) {
		t.Errorf("fold test sizes sum to %d, want %d", total, len(data))
	}
	if m := MeanAccuracy(folds); m < 0.8 || m > 1 {
		t.Errorf("mean accuracy = %g", m)
	}
}

func TestKFoldErrors(t *testing.T) {
	data := [][]float64{{1}, {2}, {3}}
	if _, err := KFoldBenign(data, 1, 0, 99, fitMean); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := KFoldBenign(data, 5, 0, 99, fitMean); err == nil {
		t.Error("k > len(data) accepted")
	}
}

func TestMeanAccuracyEmpty(t *testing.T) {
	if MeanAccuracy(nil) != 0 {
		t.Error("MeanAccuracy(nil) != 0")
	}
}

func TestScorerFunc(t *testing.T) {
	s := ScorerFunc(func(x []float64) float64 { return x[0] * 2 })
	scores := ScoreAll(s, [][]float64{{1}, {2}})
	if scores[0] != 2 || scores[1] != 4 {
		t.Errorf("scores = %v", scores)
	}
}

// Property: the percentile threshold is monotone in pct and bounded by
// the score range.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []float64, aRaw, bRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		a := float64(aRaw%100) + 0.5
		b := float64(bRaw%100) + 0.5
		if a > b {
			a, b = b, a
		}
		ta := PercentileThreshold(raw, a)
		tb := PercentileThreshold(raw, b)
		sorted := append([]float64(nil), raw...)
		sort.Float64s(sorted)
		return ta <= tb && ta >= sorted[0] && tb <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: confusion counts always sum to the sample count, and accuracy
// is within [0,1].
func TestQuickEvaluateInvariants(t *testing.T) {
	f := func(pred, truth []bool) bool {
		n := len(pred)
		if len(truth) < n {
			n = len(truth)
		}
		c := Evaluate(pred[:n], truth[:n])
		return c.Total() == n && c.Accuracy() >= 0 && c.Accuracy() <= 1 &&
			c.F1() >= 0 && c.F1() <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPercentileThreshold(b *testing.B) {
	scores := make([]float64, 10000)
	for i := range scores {
		scores[i] = float64(i%997) / 997
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PercentileThreshold(scores, 99)
	}
}
