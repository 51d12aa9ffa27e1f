// Command xsec-bench regenerates the tables and figures of the 6G-XSec
// paper's evaluation from the simulated testbed.
//
// Usage:
//
//	xsec-bench -all                 # every artifact
//	xsec-bench -table 2             # one table (1, 2, 3)
//	xsec-bench -figure 4            # one figure (2, 4, 5)
//	xsec-bench -ablation threshold  # window | threshold | bottleneck | rag
//	xsec-bench -quick -table 2      # reduced dataset / epochs
//
// How fast a layer of the shipped system runs is benchmark/'s question
// (bash benchmark/run.sh), not this command's.
//
// -log-level (default $XSEC_LOG_LEVEL) writes structured logs to stderr
// at that level and above, none when empty; -metrics-addr serves
// /metrics and /healthz for the duration of the run.
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
		logLevel    = obs.LogLevelFlag()
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /healthz on this address for the run")
	)
	flag.Parse()

	if err := obs.SetupCLI(os.Stderr, *logLevel, *metricsAddr); err != nil {
		fmt.Fprintln(os.Stderr, "xsec-bench:", err)
		os.Exit(1)
	}

	cfg := bench.Config{Seed: *seed}
	if *quick {
		cfg = bench.Quick(*seed)
	}

	out, err := run(cfg, *table, *figure, *ablation, *all)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xsec-bench:", err)
		os.Exit(1)
	}
	fmt.Println(out)
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
