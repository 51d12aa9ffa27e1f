// Package bench regenerates every table and figure of the 6G-XSec
// paper's evaluation (§4) from the simulated testbed: Table 1 (telemetry
// schema), Table 2 (detection performance), Table 3 (LLM matrix),
// Figure 2 (attack sequences), Figure 4 (reconstruction-error series),
// and Figure 5 (prompt/response example) — plus the ablations DESIGN.md
// commits to (window size, threshold percentile, bottleneck width).
// How fast the shipped system runs is benchmark/'s question, not this
// package's; fed.go (BENCH_fed.json) is the exception, kept because it
// is CI's only federated record-loss check until benchmark/ has a
// federated workload.
//
// The cmd/xsec-bench binary and the repository-root benchmarks both call
// into this package, so the printed artifacts and the testing.B numbers
// come from the same code.
package bench

import (
	"fmt"
	"strings"
	"sync"

	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
)

// Config scales the experiments.
type Config struct {
	// Seed drives dataset generation and training.
	Seed int64
	// TrainSessions is the size of the benign training corpus (the
	// paper collects >100 sessions; default 120).
	TrainSessions int
	// Fleet is the number of distinct benign devices (default 20).
	Fleet int
	// Window is the sliding-window size N (default 4).
	Window int
	// Percentile is the detection threshold percentile (default 99).
	Percentile float64
	// Epochs trains the models (default 40).
	Epochs int
	// Folds for benign cross-validation (default 5).
	Folds int
	// InstancesPerAttack in the attack dataset (default 2).
	InstancesPerAttack int
}

// Quick returns a configuration an order of magnitude cheaper, used by
// unit tests and -short benchmarks.
func Quick(seed int64) Config {
	return Config{
		Seed: seed, TrainSessions: 40, Fleet: 10, Window: 4,
		Percentile: 99, Epochs: 12, Folds: 3, InstancesPerAttack: 1,
	}
}

func (c *Config) defaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.TrainSessions == 0 {
		c.TrainSessions = 120
	}
	if c.Fleet == 0 {
		c.Fleet = 20
	}
	if c.Window == 0 {
		c.Window = 4
	}
	if c.Percentile == 0 {
		c.Percentile = 99
	}
	if c.Epochs == 0 {
		c.Epochs = 40
	}
	if c.Folds == 0 {
		c.Folds = 5
	}
	if c.InstancesPerAttack == 0 {
		c.InstancesPerAttack = 2
	}
}

// Env bundles the generated datasets and trained models an experiment
// needs; building it is the expensive part, so it is cached per Config.
type Env struct {
	Cfg    Config
	Benign mobiflow.Trace
	Mixed  *dataset.Labeled
	Models *mobiwatch.Models
}

var (
	envMu    sync.Mutex
	envCache = map[Config]*Env{}
)

// BuildEnv generates the benign and attack datasets and trains the
// models. Results are cached per configuration.
func BuildEnv(cfg Config) (*Env, error) {
	cfg.defaults()
	envMu.Lock()
	defer envMu.Unlock()
	if env, ok := envCache[cfg]; ok {
		return env, nil
	}
	benign, err := dataset.GenerateBenign(dataset.BenignConfig{
		Sessions: cfg.TrainSessions, Fleet: cfg.Fleet, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: benign dataset: %w", err)
	}
	mixed, err := dataset.GenerateMixed(dataset.MixedConfig{
		BenignConfig:       dataset.BenignConfig{Fleet: cfg.Fleet, Seed: cfg.Seed + 1},
		InstancesPerAttack: cfg.InstancesPerAttack,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: attack dataset: %w", err)
	}
	models, err := mobiwatch.Train(benign, mobiwatch.TrainOptions{
		Window: cfg.Window, Percentile: cfg.Percentile,
		Epochs: cfg.Epochs, Seed: cfg.Seed + 2,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: training: %w", err)
	}
	env := &Env{Cfg: cfg, Benign: benign, Mixed: mixed, Models: models}
	envCache[cfg] = env
	return env, nil
}

// formatTable renders rows with aligned columns.
func formatTable(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

func pct(v float64) string { return fmt.Sprintf("%.2f%%", 100*v) }
