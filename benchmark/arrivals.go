package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// opKind is what the open-loop generator does at one arrival.
type opKind uint8

const (
	opSession opKind = iota // one benign UE session
	opAttack                // one attack episode
)

// arrival is one scheduled generator operation. Due is an offset from the
// start of the run; every latency is timed from it, not from when the
// generator got round to the operation, so a generator stall is charged
// to the operations it delayed.
type arrival struct {
	Due  time.Duration
	Kind opKind
}

// poisson draws the arrival offsets of a Poisson process over [from, to),
// conditioned on its count: given that n events fall in an interval, their
// times are n independent uniform draws, sorted. Fixing n at rate × length
// keeps the offered load the same for every seed while the spacing stays
// Poisson (gap CV 1). The same rng state gives the same offsets.
func poisson(rng *rand.Rand, rate float64, from, to time.Duration) []time.Duration {
	n := int(math.Round(rate * (to - from).Seconds()))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = from + time.Duration(rng.Float64()*float64(to-from))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// schedule merges a session process and an attack process into one
// due-ordered list. Each process has its own seed-derived rng, so changing
// one rate leaves the other's arrivals untouched, and the warm-up and the
// measured interval are drawn separately, so the measured interval holds
// exactly rate × length operations of each kind.
func schedule(seed int64, sessionRate, attackRate float64, warmup, measure time.Duration) ([]arrival, error) {
	var out []arrival
	for kind, rate := range []float64{opSession: sessionRate, opAttack: attackRate} {
		rng := rand.New(rand.NewSource(seed*2 + int64(kind)))
		offs := poisson(rng, rate, 0, warmup)
		offs = append(offs, poisson(rng, rate, warmup, warmup+measure)...)
		if err := checkNotGrid(offs); err != nil {
			return nil, err
		}
		for _, d := range offs {
			out = append(out, arrival{Due: d, Kind: opKind(kind)})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Due != out[j].Due {
			return out[i].Due < out[j].Due
		}
		return out[i].Kind < out[j].Kind
	})
	return out, nil
}

// minGapCV is the lowest coefficient of variation of inter-arrival gaps a
// schedule may have. A Poisson process has 1; a fixed grid has 0. A grid
// phase-locks with the gNB's 10 ms report ticker: every arrival then sees
// the same hold and the latency distribution collapses to one phase.
const minGapCV = 0.5

// checkNotGrid rejects arrival offsets that are (close to) evenly spaced.
// Schedules too short to judge pass.
func checkNotGrid(offs []time.Duration) error {
	if len(offs) < 16 {
		return nil
	}
	gaps := make([]float64, len(offs)-1)
	var mean float64
	for i := range gaps {
		gaps[i] = float64(offs[i+1] - offs[i])
		mean += gaps[i]
	}
	mean /= float64(len(gaps))
	var ss float64
	for _, g := range gaps {
		ss += (g - mean) * (g - mean)
	}
	if cv := math.Sqrt(ss/float64(len(gaps))) / mean; cv < minGapCV {
		return fmt.Errorf("arrivals: inter-arrival CV %.3f < %.1f: a fixed-grid schedule phase-locks with the report ticker", cv, minGapCV)
	}
	return nil
}

// lateness accumulates how late the generator started each operation
// relative to its due time.
type lateness struct {
	samples []float64 // ms
}

func (l *lateness) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	l.samples = append(l.samples, ms(d))
}

// lateBoundsMS are the upper bounds of the lateness histogram written to
// the results file; the last bucket is open.
var lateBoundsMS = []float64{0.1, 0.2, 0.5, 1, 2, 5, 10, 20, 50}

// histogram counts samples per lateBoundsMS bucket (len(bounds)+1 counts).
func (l *lateness) histogram() []int {
	counts := make([]int, len(lateBoundsMS)+1)
	for _, s := range l.samples {
		counts[sort.SearchFloat64s(lateBoundsMS, s)]++
	}
	return counts
}

// sleepUntil blocks until t.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
