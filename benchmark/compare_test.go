package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sideOf(vals ...float64) side {
	reps := make([]*report, len(vals))
	for i, v := range vals {
		reps[i] = &report{EndToEnd: map[string]metric{"m": {Value: v}}}
	}
	return newSide(reps, "m")
}

func TestJudge(t *testing.T) {
	lower := e2eDef{Name: "m", Better: "lower", Bound: 0.10}
	higher := e2eDef{Name: "m", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name     string
		def      e2eDef
		old, new side
		want     string
	}{
		{"lower: +20% is worse", lower, sideOf(10, 10, 10), sideOf(12, 12, 12), "worse"},
		{"lower: -20% is better", lower, sideOf(10, 10, 10), sideOf(8, 8, 8), "better"},
		{"higher: -20% is worse", higher, sideOf(10, 10, 10), sideOf(8, 8, 8), "worse"},
		{"higher: +20% is better", higher, sideOf(10, 10, 10), sideOf(12, 12, 12), "better"},
		{"within the bound, tight runs", lower, sideOf(10, 10.1, 9.9), sideOf(10.3, 10.4, 10.2), "same"},
		{"within the bound, wide runs", lower, sideOf(8, 10, 12), sideOf(8.5, 10.2, 12), "unresolved"},
		{"wide runs, yet every new run better", lower, sideOf(10.4, 12, 11), sideOf(10.3, 10.1, 10.2), "same"},
		{"one side empty", lower, sideOf(), sideOf(1), "unresolved"},
	} {
		if got := judge(c.def, c.old, c.new); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFilesFlagsWorseAndSkipsTracedRuns(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, reps ...*report) string {
		path := filepath.Join(dir, name)
		for _, rep := range reps {
			if err := appendResult(dir, rep); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.Rename(filepath.Join(dir, "results.jsonl"), path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	rep := func(traced bool, detect float64) *report {
		r := &report{Workload: "attack_mix", Trace: traced, EndToEnd: map[string]metric{}}
		for _, d := range endToEnd {
			r.EndToEnd[d.Name] = metric{Value: 100, Unit: d.Unit}
		}
		r.EndToEnd["detect_ms_p50"] = metric{Value: detect, Unit: "ms"}
		return r
	}
	oldPath := write("old.jsonl", rep(false, 7.5), rep(false, 7.6), rep(false, 7.4), rep(true, 99))
	samePath := write("same.jsonl", rep(false, 7.7), rep(false, 7.5), rep(false, 7.6))
	worsePath := write("worse.jsonl", rep(false, 9.5), rep(false, 9.6), rep(false, 9.4))

	var buf bytes.Buffer
	worse, err := compareFiles(&buf, oldPath, samePath)
	if err != nil || worse {
		t.Fatalf("same commit: worse=%v err=%v\n%s", worse, err, buf.String())
	}
	if strings.Count(buf.String(), "\n") != 1+len(workloads)*len(endToEnd) {
		t.Errorf("want one row per metric and workload:\n%s", buf.String())
	}
	buf.Reset()
	worse, err = compareFiles(&buf, oldPath, worsePath)
	if err != nil || !worse {
		t.Fatalf("+27%% detect_ms_p50 not flagged: worse=%v err=%v\n%s", worse, err, buf.String())
	}
}
