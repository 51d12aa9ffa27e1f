package fleet

import (
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/obs"
)

func alertRollups(raised, dropped float64) []obs.SeriesSnapshot {
	return []obs.SeriesSnapshot{
		{Name: "xsec_fleet_alerts_total", Kind: "counter", Value: raised, Labels: map[string]string{"outcome": "raised"}},
		{Name: "xsec_fleet_alerts_total", Kind: "counter", Value: dropped, Labels: map[string]string{"outcome": "dropped"}},
	}
}

func TestSLOBurnRateRatioObjective(t *testing.T) {
	var obj Objective
	for _, o := range defaultObjectives() {
		if o.Name == "alert-delivery" {
			obj = o
		}
	}
	if obj.Name == "" {
		t.Fatal("alert-delivery objective missing from defaults")
	}
	st := &sloState{obj: obj}
	t0 := time.Unix(1000, 0)
	keep := 10 * time.Minute

	// Healthy traffic: 1000 raised, nothing dropped.
	st.observe(t0, alertRollups(1000, 0), keep)
	st.observe(t0.Add(30*time.Second), alertRollups(2000, 0), keep)
	if burn := st.burnRate(t0.Add(30*time.Second), 30*time.Second); burn != 0 {
		t.Fatalf("healthy burn = %v", burn)
	}

	// Incident: 10% of the next 1000 windows dropped. Evaluated just
	// after the incident sample, the fast window's base is the t0+30s
	// sample — bad fraction 0.1 against a 0.001 budget = burn 100.
	st.observe(t0.Add(time.Minute), alertRollups(2900, 100), keep)
	now := t0.Add(61 * time.Second)
	burn := st.burnRate(now, 30*time.Second)
	if burn < 99 || burn > 101 {
		t.Fatalf("incident burn = %v, want ~100", burn)
	}
	// The slow window reaches back to t0, diluting the same incident
	// over twice the traffic.
	slow := st.burnRate(now, time.Minute)
	if slow < 49 || slow > 51 {
		t.Fatalf("slow burn = %v, want ~50", slow)
	}

	ratio, good, total := st.sli()
	if total != 3000 || good != 2900 {
		t.Fatalf("sli totals = %v/%v", good, total)
	}
	if ratio <= 0.96 || ratio >= 0.97 {
		t.Fatalf("lifetime sli = %v, want 2900/3000", ratio)
	}
}

func TestSLOLatencyObjective(t *testing.T) {
	obj := Objective{
		Name: "detect-latency", Target: 0.99,
		LatencySeries: "xsec_fleet_detect_latency_seconds", LatencyBound: 0.05,
	}
	st := &sloState{obj: obj}
	hist := func(under, over uint64) []obs.SeriesSnapshot {
		return []obs.SeriesSnapshot{{
			Name: "xsec_fleet_detect_latency_seconds", Kind: "histogram",
			Count:   under + over,
			Buckets: []obs.BucketSnapshot{{LE: 0.05, Count: under}, {LE: 1, Count: under + over}},
		}}
	}
	t0 := time.Unix(2000, 0)
	st.observe(t0, hist(100, 0), time.Hour)
	st.observe(t0.Add(30*time.Second), hist(150, 50), time.Hour)

	// 50 of the last 100 observations breached the bound: bad fraction
	// 0.5 against a 0.01 budget = burn 50.
	burn := st.burnRate(t0.Add(30*time.Second), 30*time.Second)
	if burn < 49 || burn > 51 {
		t.Fatalf("latency burn = %v, want ~50", burn)
	}
}

func TestSLONoTraffic(t *testing.T) {
	st := &sloState{obj: defaultObjectives()[1]}
	if burn := st.burnRate(time.Unix(0, 0), time.Minute); burn != 0 {
		t.Fatalf("empty-history burn = %v", burn)
	}
	ratio, _, _ := st.sli()
	if ratio != 1 {
		t.Fatalf("no-traffic sli = %v, want 1", ratio)
	}
	st.observe(time.Unix(3000, 0), nil, time.Hour)
	if burn := st.burnRate(time.Unix(3030, 0), time.Minute); burn != 0 {
		t.Fatalf("zero-total burn = %v", burn)
	}
}

func TestSLOHistoryTrim(t *testing.T) {
	st := &sloState{obj: defaultObjectives()[1]}
	t0 := time.Unix(4000, 0)
	for i := 0; i < 100; i++ {
		st.observe(t0.Add(time.Duration(i)*time.Second), alertRollups(float64(i), 0), 10*time.Second)
	}
	if len(st.history) > 12 {
		t.Fatalf("history not trimmed: %d samples kept for a 10s window", len(st.history))
	}
}

func TestBucketCountAtOrBelow(t *testing.T) {
	buckets := []obs.BucketSnapshot{{LE: 0.01, Count: 5}, {LE: 0.05, Count: 8}, {LE: 1, Count: 10}}
	for _, tc := range []struct {
		v    float64
		want uint64
	}{{0.005, 5}, {0.05, 8}, {0.5, 10}, {2, 10}} {
		if got := bucketCountAtOrBelow(buckets, tc.v); got != tc.want {
			t.Fatalf("bucketCountAtOrBelow(%v) = %d, want %d", tc.v, got, tc.want)
		}
	}
	if got := bucketCountAtOrBelow(nil, 1); got != 0 {
		t.Fatalf("empty buckets = %d", got)
	}
}
