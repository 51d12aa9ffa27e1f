// Command xsec-bench regenerates the tables and figures of the 6G-XSec
// paper's evaluation from the simulated testbed.
//
// Usage:
//
//	xsec-bench -all                 # every artifact
//	xsec-bench -table 2             # one table (1, 2, 3)
//	xsec-bench -figure 4            # one figure (2, 4, 5)
//	xsec-bench -ablation threshold  # window | threshold | bottleneck
//	xsec-bench -quick -table 2      # reduced dataset / epochs
//	xsec-bench -fed                 # federated throughput baseline → BENCH_fed.json
//	xsec-bench -fed -smoke          # reduced federation workload (CI path check; fails on a record lost across join+kill)
//	xsec-bench -fleet               # fleet observability baseline → BENCH_fleet.json
//	xsec-bench -fleet -smoke        # reduced fleet drill (CI path check; fails unless the victim left the ring and the stitched trace is complete)
//
// How fast a layer of the shipped system runs is benchmark/'s question
// (bash benchmark/run.sh), not this command's; the two federation drills
// stay here until benchmark/ has a federated workload.
//
// -log-level (default $XSEC_LOG_LEVEL, else info) tunes structured log
// verbosity; -metrics-addr serves /metrics, /healthz, and the /fleet/*
// endpoints for the duration of the run.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/6g-xsec/xsec/internal/bench"
	"github.com/6g-xsec/xsec/internal/obs"
)

func main() {
	var (
		table       = flag.Int("table", 0, "regenerate a table (1, 2, or 3)")
		figure      = flag.Int("figure", 0, "regenerate a figure (2, 4, or 5)")
		ablation    = flag.String("ablation", "", "run an ablation: window | threshold | bottleneck | rag")
		all         = flag.Bool("all", false, "regenerate every artifact")
		quick       = flag.Bool("quick", false, "use the reduced configuration")
		seed        = flag.Int64("seed", 1, "experiment seed")
		fedBench    = flag.Bool("fed", false, "measure federated multi-RIC throughput vs a single instance")
		fleetBench  = flag.Bool("fleet", false, "measure the fleet observability plane: scrapes, trace stitching, failure detection")
		smoke       = flag.Bool("smoke", false, "shrink the -fed/-fleet workload so CI exercises the path quickly (-fed fails on a lost record, -fleet on a missed eviction or incomplete trace)")
		outPath     = flag.String("out", "", "baseline output path (default BENCH_<name>.json)")
		logLevel    = flag.String("log-level", envDefault("XSEC_LOG_LEVEL", "info"), "log verbosity: debug | info | warn | error")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /healthz, and /fleet/* on this address for the run")
	)
	flag.Parse()

	if err := setupObs(*logLevel, *metricsAddr); err != nil {
		fmt.Fprintln(os.Stderr, "xsec-bench:", err)
		os.Exit(1)
	}

	cfg := bench.Config{Seed: *seed}
	if *quick {
		cfg = bench.Quick(*seed)
	}

	// One row per machine-readable baseline: the flag that selects it,
	// the file it lands in, and the run that produces it.
	baselines := []struct {
		selected *bool
		file     string
		run      func() (baseline, error)
	}{
		{fedBench, "BENCH_fed.json", func() (baseline, error) {
			return bench.RunFedBench(bench.FedOptions{Seed: *seed, Smoke: *smoke})
		}},
		{fleetBench, "BENCH_fleet.json", func() (baseline, error) {
			return bench.RunFleetBench(bench.FleetOptions{Seed: *seed, Smoke: *smoke})
		}},
	}
	for _, b := range baselines {
		if !*b.selected {
			continue
		}
		path := *outPath
		if path == "" {
			path = b.file
		}
		res, err := b.run()
		if err == nil {
			err = writeBaseline(res, path)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "xsec-bench:", err)
			os.Exit(1)
		}
		return
	}

	out, err := run(cfg, *table, *figure, *ablation, *all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xsec-bench:", err)
		os.Exit(1)
	}
	fmt.Println(out)
}

// baseline is what every machine-readable bench result offers: the JSON
// that is committed and the table that is printed.
type baseline interface {
	JSON() ([]byte, error)
	Format() string
}

// writeBaseline persists a machine-readable baseline next to the
// human-readable table.
func writeBaseline(res baseline, path string) error {
	data, err := res.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println(res.Format())
	fmt.Println("baseline written to", path)
	return nil
}

// envDefault returns the environment variable's value, or def when the
// variable is unset or empty.
func envDefault(key, def string) string {
	if v := os.Getenv(key); v != "" {
		return v
	}
	return def
}

// setupObs applies the log level and, when requested, serves the
// observability endpoints for the duration of the run.
func setupObs(logLevel, metricsAddr string) error {
	lv, err := obs.ParseLevel(logLevel)
	if err != nil {
		return err
	}
	obs.SetLogLevel(lv)
	if metricsAddr != "" {
		addr, _, err := obs.ListenAndServe(metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		fmt.Fprintln(os.Stderr, "metrics on http://"+addr)
	}
	return nil
}

func run(cfg bench.Config, table, figure int, ablation string, all bool) (string, error) {
	switch {
	case all:
		return bench.FormatAll(cfg)
	case table == 1:
		return bench.Table1(), nil
	case table == 2:
		res, err := bench.RunTable2(cfg)
		if err != nil {
			return "", err
		}
		return res.Format(), nil
	case table == 3:
		res, err := bench.RunTable3(cfg)
		if err != nil {
			return "", err
		}
		return res.Format(), nil
	case figure == 2:
		return bench.Figure2(cfg)
	case figure == 4:
		res, err := bench.RunFigure4(cfg)
		if err != nil {
			return "", err
		}
		return res.Format(), nil
	case figure == 5:
		return bench.Figure5(cfg)
	case ablation == "window":
		res, err := bench.AblationWindowSize(cfg, []int{2, 4, 6, 8, 10})
		if err != nil {
			return "", err
		}
		return res.Format(), nil
	case ablation == "threshold":
		res, err := bench.AblationThreshold(cfg, []float64{99.9, 99, 97, 95, 93, 90, 85})
		if err != nil {
			return "", err
		}
		return res.Format(), nil
	case ablation == "bottleneck":
		res, err := bench.AblationBottleneck(cfg, []int{4, 8, 16, 32})
		if err != nil {
			return "", err
		}
		return res.Format(), nil
	case ablation == "rag":
		zero, err := bench.RunTable3(cfg)
		if err != nil {
			return "", err
		}
		rag, err := bench.RunTable3RAG(cfg)
		if err != nil {
			return "", err
		}
		return "Zero-shot (paper's Table 3):\n\n" + zero.Format() +
			"\nWith retrieval-augmented prompts (§5 extension):\n\n" + rag.Format(), nil
	default:
		return "", fmt.Errorf("nothing selected; try -all, -table N, -figure N, or -ablation NAME")
	}
}
