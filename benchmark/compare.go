package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readResults loads the untraced runs of a results.jsonl file, grouped
// by workload. End-to-end numbers come from untraced runs only.
func readResults(path string) (map[string][]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]*report{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !rep.Trace {
			out[rep.Workload] = append(out[rep.Workload], &rep)
		}
	}
	return out, sc.Err()
}

// side summarises one file's runs of one metric on one workload.
type side struct {
	vals   []float64 // ascending
	median float64
	spread float64 // interquartile range; the full range below 4 runs
}

func newSide(reps []*report, name string) side {
	var s side
	for _, rep := range reps {
		if m, ok := rep.EndToEnd[name]; ok {
			s.vals = append(s.vals, m.Value)
		}
	}
	sort.Float64s(s.vals)
	if len(s.vals) == 0 {
		return s
	}
	s.median = quantile(s.vals, 50)
	s.spread = s.vals[len(s.vals)-1] - s.vals[0]
	if len(s.vals) >= 4 {
		s.spread = quantile(s.vals, 75) - quantile(s.vals, 25)
	}
	return s
}

// judge applies a metric's direction and bound to two sets of runs.
// worse: the new median is worse than the old by more than the bound.
// better: it is better by more than the bound. unresolved: neither, but
// the run-to-run spread is wider than the bound, so "same" cannot be
// claimed, unless every new run reads better than every old run.
func judge(def e2eDef, old, new side) string {
	if len(old.vals) == 0 || len(new.vals) == 0 || old.median == 0 {
		return "unresolved"
	}
	sign := 1.0 // positive change = worse
	if def.Better == "higher" {
		sign = -1
	}
	change := sign * (new.median - old.median) / old.median
	switch {
	case change > def.Bound:
		return "worse"
	case change < -def.Bound:
		return "better"
	}
	spread := old.spread
	if new.spread > spread {
		spread = new.spread
	}
	if spread/old.median > def.Bound {
		allBetter := new.vals[len(new.vals)-1] < old.vals[0]
		if def.Better == "higher" {
			allBetter = new.vals[0] > old.vals[len(old.vals)-1]
		}
		if !allBetter {
			return "unresolved"
		}
	}
	return "same"
}

// compareFiles prints one row per end-to-end metric × workload and
// reports whether any row is worse.
func compareFiles(w io.Writer, oldPath, newPath string) (worse bool, err error) {
	olds, err := readResults(oldPath)
	if err != nil {
		return false, err
	}
	news, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-16s %-24s %-6s %14s %14s %8s %7s %6s  %s\n",
		"workload", "metric", "unit", "old median", "new median", "change", "bound", "runs", "verdict")
	for _, wl := range workloads {
		for _, def := range endToEnd {
			o, n := newSide(olds[wl.Name], def.Name), newSide(news[wl.Name], def.Name)
			verdict := judge(def, o, n)
			worse = worse || verdict == "worse"
			fmt.Fprintf(w, "%-16s %-24s %-6s %14.4f %14.4f %+7.1f%% %6.0f%% %3d/%-3d %s\n",
				wl.Name, def.Name, def.Unit, o.median, n.median,
				100*ratio(n.median-o.median, o.median), 100*def.Bound, len(o.vals), len(n.vals), verdict)
		}
	}
	return worse, nil
}
