// Command benchmark is the repository's one end-to-end yardstick for the
// detect → explain → mitigate loop. It assembles the shipped
// core.Framework, drives it from outside through public API only, prints
// every metric by name with its unit, checks that the outputs are
// correct, and exits non-zero when a check fails. See README.md.
//
//	go run ./benchmark -workload attack_mix -seed 1 -seconds 10 -trace 0
//	go run ./benchmark                      # all workloads, one set-up
//	go run ./benchmark -compare old.jsonl new.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
)

// e2eDef declares one end-to-end metric. The table mirrors
// BENCHMARK.json (a test keeps the two in step); -compare reads the
// bounds and directions from here.
type e2eDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the old median by which the metric may worsen
}

var endToEnd = []e2eDef{
	{"setup_s", "s", "lower", 0.25},
	{"records_per_s", "rec/s", "higher", 0.25},
	{"detect_ms_p50", "ms", "lower", 0.25},
	{"verdict_ms_p50", "ms", "lower", 0.25},
	{"heap_retained_b_per_rec", "B/rec", "lower", 0.15},
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: benign_capacity, attack_mix, alert_storm or all")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs: UE behaviour, replay trace, arrival schedules")
		seconds = flag.Float64("seconds", 10, "length of the measured interval of each workload")
		trace   = flag.Int("trace", 0, "1: record spans, run the layer probes and report the per-layer metrics")
		out     = flag.String("out", ".bench_build/benchmark", "directory for results.jsonl and trace-<workload>.json")
		commit  = flag.String("commit", "", "commit the results are labelled with (default: the build's VCS revision)")
		compare = flag.Bool("compare", false, "compare two results files: -compare old.jsonl new.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two results files, got %d", flag.NArg()))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*name); ok {
		todo = []workload{w}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	cfg := defaultConfig()
	cfg.Seed, cfg.Seconds = *seed, *seconds

	reports, err := runAll(cfg, todo, *trace != 0, *out, commitLabel(*commit))
	if err != nil {
		fatal(err)
	}
	ok := true
	for _, rep := range reports {
		printReport(rep)
		ok = ok && rep.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runAll sets up once and runs each workload on a fresh framework.
func runAll(cfg config, todo []workload, traced bool, outDir, commit string) ([]*report, error) {
	fx, err := setup(cfg)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var reports []*report
	for _, w := range todo {
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		r, err := runWorkload(cfg, w, fx, tr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		rep := derive(r, commit)
		if tr != nil {
			if rep.TraceFile, err = tr.write(outDir, w.Name); err != nil {
				return nil, err
			}
		}
		if err := appendResult(outDir, rep); err != nil {
			return nil, err
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// appendResult adds one line to results.jsonl, so repeated runs build the
// sets -compare takes.
func appendResult(dir string, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "results.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// commitLabel falls back to the revision the toolchain stamped, if any.
func commitLabel(flagValue string) string {
	if flagValue != "" {
		return flagValue
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// printReport prints every metric by name with its unit, the gate, and
// last the one-line result the driver reads: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func printReport(rep *report) {
	fmt.Printf("== %s  seed=%d seconds=%g trace=%v gomaxprocs=%d nproc=%d commit=%s\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.GoMaxProcs, rep.NProc, rep.Commit)
	for _, name := range rep.order {
		m, e2e := rep.EndToEnd[name]
		if !e2e {
			m = rep.PerLayer[name]
		}
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  n=%d", m.N)
		}
		fmt.Printf("  %-34s %14.4f %-6s%s\n", name, m.Value, m.Unit, n)
	}
	for _, c := range rep.Checks {
		status := "ok  "
		if !c.OK {
			status = "FAIL"
		}
		fmt.Printf("  check %s %-28s %s\n", status, c.Name, c.Detail)
	}
	for _, w := range rep.Warnings {
		fmt.Printf("  warning: %s\n", w)
	}
	if rep.TraceFile != "" {
		names := make([]string, 0, len(rep.SelfMS))
		for name := range rep.SelfMS {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  self  %-34s %14.4f ms\n", name, rep.SelfMS[name])
		}
		fmt.Printf("  spans written to %s\n", rep.TraceFile)
	}
	metrics := rep.EndToEnd
	if rep.Trace {
		metrics = rep.PerLayer
	}
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]valueUnit{}}
	for name, m := range metrics {
		result.Metrics[name] = valueUnit{m.Value, m.Unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}
