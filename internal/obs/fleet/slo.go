package fleet

import (
	"time"

	"github.com/6g-xsec/xsec/internal/obs"
)

// The SLO engine evaluates declarative objectives over the federated
// snapshot and alerts on error-budget burn rate in two windows at once
// (the SRE-workbook multi-window pattern): the fast window catches an
// active incident, the slow window keeps a transient blip from paging.
// Both must exceed the objective's burn threshold for the alert to
// fire.

// Selector matches counter series in the merged view by family name
// and an exact subset of labels (the injected "instance" label is
// ignored, so a selector naturally sums across instances).
type Selector struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
}

func (sel Selector) matches(s obs.SeriesSnapshot) bool {
	if s.Name != sel.Name {
		return false
	}
	for k, v := range sel.Labels {
		if s.Labels[k] != v {
			return false
		}
	}
	return true
}

// Objective is one declarative SLO. Exactly one of the two shapes is
// used: a ratio objective (Good/Total counter selectors) or a latency
// objective (a histogram family plus a bound; "good" is the fraction of
// observations at or under the bound).
type Objective struct {
	// Name identifies the objective in metrics and alerts.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Target is the objective ratio (e.g. 0.999); 1-Target is the error
	// budget the burn rate is measured against.
	Target float64 `json:"target"`

	// Good / Total select counter series for a ratio objective. Multiple
	// selectors sum.
	Good  []Selector `json:"good,omitempty"`
	Total []Selector `json:"total,omitempty"`

	// LatencySeries and LatencyBound define a latency objective over a
	// merged histogram: good = observations with value <= bound.
	LatencySeries string  `json:"latency_series,omitempty"`
	LatencyBound  float64 `json:"latency_bound,omitempty"`
}

// burnThreshold is the burn-rate multiple that fires an objective's
// alert in both windows at once: burning the budget at twice the
// sustainable rate.
const burnThreshold = 2

// defaultObjectives are the paper-motivated fleet SLOs: detection stays
// inside the near-RT loop, alerts are not shed, and migrations do not
// lose state.
func defaultObjectives() []Objective {
	return []Objective{
		{
			Name:          "detect-latency",
			Description:   "99% of scoring-stage passes (window, ae, lstm) finish within 50ms across the fleet",
			Target:        0.99,
			LatencySeries: "xsec_fleet_detect_latency_seconds",
			LatencyBound:  0.05,
		},
		{
			Name:        "alert-delivery",
			Description: "flagged windows reach the analyzer stream instead of being shed",
			Target:      0.999,
			Good:        []Selector{{Name: "xsec_fleet_alerts_total", Labels: map[string]string{"outcome": "raised"}}},
			Total: []Selector{
				{Name: "xsec_fleet_alerts_total", Labels: map[string]string{"outcome": "raised"}},
				{Name: "xsec_fleet_alerts_total", Labels: map[string]string{"outcome": "dropped"}},
			},
		},
		{
			Name:        "migration-success",
			Description: "UE-state migrations complete without falling back to cold start",
			Target:      0.99,
			Good:        []Selector{{Name: "xsec_fleet_migrations_total", Labels: map[string]string{"direction": "out"}}},
			Total: []Selector{
				{Name: "xsec_fleet_migrations_total", Labels: map[string]string{"direction": "out"}},
				{Name: "xsec_fleet_migrations_total", Labels: map[string]string{"direction": "failed"}},
			},
		},
	}
}

// sloSample is one (good, total) cumulative observation at a point in
// time; the engine keeps a bounded history per objective to compute
// windowed deltas.
type sloSample struct {
	at    time.Time
	good  float64
	total float64
}

type sloState struct {
	obj     Objective
	history []sloSample
}

// observe extracts the objective's cumulative good/total from the
// merged+rollup series and appends a sample.
func (st *sloState) observe(now time.Time, rollups []obs.SeriesSnapshot, keep time.Duration) {
	var good, total float64
	if st.obj.LatencySeries != "" {
		for _, s := range rollups {
			if s.Name != st.obj.LatencySeries || len(s.Buckets) == 0 {
				continue
			}
			total += float64(s.Count)
			good += float64(bucketCountAtOrBelow(s.Buckets, st.obj.LatencyBound))
		}
	} else {
		for _, s := range rollups {
			for _, sel := range st.obj.Good {
				if sel.matches(s) {
					good += s.Value
				}
			}
			for _, sel := range st.obj.Total {
				if sel.matches(s) {
					total += s.Value
				}
			}
		}
	}
	st.history = append(st.history, sloSample{at: now, good: good, total: total})
	cutoff := now.Add(-keep)
	trim := 0
	for trim < len(st.history)-1 && st.history[trim].at.Before(cutoff) {
		trim++
	}
	st.history = st.history[trim:]
}

// bucketCountAtOrBelow returns the cumulative count of the first bucket
// whose bound is >= v — the observations known to be at or under v
// (conservative: observations between v and the bucket bound count as
// good, matching how Prometheus SLO recording rules bucket).
func bucketCountAtOrBelow(buckets []obs.BucketSnapshot, v float64) uint64 {
	for _, b := range buckets {
		if b.LE >= v {
			return b.Count
		}
	}
	if len(buckets) > 0 {
		return buckets[len(buckets)-1].Count
	}
	return 0
}

// burnRate computes the error-budget burn over the trailing window:
// (bad fraction in window) / (1 - target). 0 when the window saw no
// traffic or the history does not reach back that far.
func (st *sloState) burnRate(now time.Time, window time.Duration) float64 {
	if len(st.history) == 0 {
		return 0
	}
	latest := st.history[len(st.history)-1]
	start := now.Add(-window)
	// Oldest sample inside the window; fall back to the earliest sample
	// we have (a short history under-reports the window, never invents).
	base := st.history[0]
	for _, smp := range st.history {
		if !smp.at.Before(start) {
			break
		}
		base = smp
	}
	dTotal := latest.total - base.total
	if dTotal <= 0 {
		return 0
	}
	dBad := (latest.total - latest.good) - (base.total - base.good)
	if dBad < 0 {
		dBad = 0
	}
	budget := 1 - st.obj.Target
	if budget <= 0 {
		budget = 1e-9
	}
	return (dBad / dTotal) / budget
}

// sli returns the lifetime good/total ratio (1 when no traffic yet).
func (st *sloState) sli() (ratio float64, good, total float64) {
	if len(st.history) == 0 {
		return 1, 0, 0
	}
	latest := st.history[len(st.history)-1]
	if latest.total <= 0 {
		return 1, latest.good, latest.total
	}
	return latest.good / latest.total, latest.good, latest.total
}

// SLOStatus is one objective's evaluation in /fleet/slo.
type SLOStatus struct {
	Name        string  `json:"name"`
	Description string  `json:"description,omitempty"`
	Target      float64 `json:"target"`
	// SLI is the lifetime good/total ratio of the objective.
	SLI   float64 `json:"sli"`
	Good  float64 `json:"good"`
	Total float64 `json:"total"`
	// BurnFast/BurnSlow are the budget burn rates in the two windows; a
	// burn of 1.0 consumes exactly the budget over the window.
	BurnFast   float64       `json:"burn_fast"`
	BurnSlow   float64       `json:"burn_slow"`
	FastWindow time.Duration `json:"fast_window_ns"`
	SlowWindow time.Duration `json:"slow_window_ns"`
	Threshold  float64       `json:"threshold"`
	// Firing is true while both windows burn above the threshold.
	Firing bool `json:"firing"`
}
