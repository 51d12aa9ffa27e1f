package main

import (
	"math"
	"testing"
	"time"
)

// "The highest percentile with at least ten samples beyond it."
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {250, 90},
		{999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 30}, {100, 50}, {25, 20}, {90, 46}} {
		if got := quantile(s, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := quantile(nil, 50); got != 0 {
		t.Errorf("quantile of nothing = %g", got)
	}
	if got := quantile([]float64{7}, 99); got != 7 {
		t.Errorf("quantile of one sample = %g", got)
	}
}

func TestSummarizeDoesNotReorderItsInput(t *testing.T) {
	in := []float64{3, 1, 2}
	d := summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input reordered: %v", in)
	}
	if d.N != 3 || d.P50 != 2 || d.Mean != 2 {
		t.Errorf("summary = %+v", d)
	}
}

// A stall lowers the slices it falls in, not the median slice; a short
// interval still yields slices.
func TestSliceRates(t *testing.T) {
	t0 := time.Now()
	pts := []recordsAt{{t0, 0}}
	for i := 1; i <= 200; i++ {
		n := uint64(1000)
		if i > 50 && i <= 70 { // two seconds at a tenth of the rate
			n = 100
		}
		pts = append(pts, recordsAt{t0.Add(time.Duration(i) * 100 * time.Millisecond), pts[i-1].Records + n})
	}
	rates := sliceRates(pts)
	if len(rates) != rateSlices {
		t.Fatalf("%d slices, want %d", len(rates), rateSlices)
	}
	if got := median(rates); math.Abs(got-10000) > 1e-6 {
		t.Errorf("median slice = %g rec/s, want 10000", got)
	}
	if got := sliceRates(pts[:6]); len(got) != 5 {
		t.Errorf("5 ticks gave %d slices, want 5", len(got))
	}
	if got := sliceRates(pts[:1]); len(got) != 0 {
		t.Errorf("no tick gave %d slices", len(got))
	}
}
