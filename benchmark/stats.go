package main

import (
	"math"
	"sort"
)

// tailCandidates are the percentiles a latency may be reported at.
var tailCandidates = []float64{50, 90, 99, 99.9}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: fewer and the figure is one or two outliers.
const minBeyond = 10

// supportedTail returns the highest of tailCandidates that still has at
// least minBeyond of n samples beyond it, or 0 when not even the median
// does.
func supportedTail(n int) float64 {
	best := 0.0
	for _, p := range tailCandidates {
		if float64(n)*(100-p)/100 >= minBeyond-1e-6 { // 100−99.9 is not exact
			best = p
		}
	}
	return best
}

// quantile returns the p-th percentile (0..100) of sorted, interpolating
// linearly between ranks. sorted must be ascending; empty gives 0.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// dist summarises one set of latency samples.
type dist struct {
	N    int
	Mean float64
	P50  float64
	P90  float64
	// Tail is the highest percentile the sample count supports (see
	// supportedTail); a reported percentile above it is flagged.
	Tail float64
}

func summarize(samples []float64) dist {
	if len(samples) == 0 {
		return dist{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	var sum float64
	for _, v := range s {
		sum += v
	}
	return dist{
		N: len(s), Mean: sum / float64(len(s)),
		P50: quantile(s, 50), P90: quantile(s, 90), Tail: supportedTail(len(s)),
	}
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, 50)
}

// rateSlices is how many equal slices a measured interval is cut into
// for a rate reported as the median slice.
const rateSlices = 20

// sliceRates cuts the sampled interval into about rateSlices slices of
// equal tick count and returns the record rate of each. The median slice
// is what the pipeline sustains; a stall of the host or a collection
// lowers a few slices, where it would lower the mean of the whole
// interval by an amount that differs from run to run.
func sliceRates(pts []recordsAt) []float64 {
	stride := (len(pts) - 1) / rateSlices
	if stride < 1 {
		stride = 1
	}
	var out []float64
	for i := stride; i < len(pts); i += stride {
		a, b := pts[i-stride], pts[i]
		out = append(out, float64(b.Records-a.Records)/b.At.Sub(a.At).Seconds())
	}
	return out
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
