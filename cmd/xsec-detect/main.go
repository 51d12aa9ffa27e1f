// Command xsec-detect runs MobiWatch anomaly detection offline over a
// MOBIFLOW trace with a trained model bundle, scoring through the same
// batched engine the online xApp runs.
//
// Usage:
//
//	xsec-detect -models models.json -csv capture.csv
//	xsec-detect -models models.json -demo          # score a generated attack dataset
//	xsec-detect ... -show 10                       # print the top-N anomalous windows
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/nn"
)

func main() {
	var (
		modelPath = flag.String("models", "models.json", "trained model bundle")
		csvIn     = flag.String("csv", "", "MOBIFLOW CSV trace to score")
		demo      = flag.Bool("demo", false, "score a generated attack dataset instead of a file")
		show      = flag.Int("show", 5, "print the N highest-scoring windows")
		seed      = flag.Int64("seed", 2, "demo dataset seed")
	)
	flag.Parse()
	if err := run(*modelPath, *csvIn, *demo, *show, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "xsec-detect:", err)
		os.Exit(1)
	}
}

func run(modelPath, csvIn string, demo bool, show int, seed int64) error {
	bundle, err := os.ReadFile(modelPath)
	if err != nil {
		return err
	}
	models, err := mobiwatch.Load(bundle)
	if err != nil {
		return err
	}

	var trace mobiflow.Trace
	switch {
	case csvIn != "":
		f, err := os.Open(csvIn)
		if err != nil {
			return err
		}
		trace, err = mobiflow.ReadCSV(f)
		f.Close()
		if err != nil {
			return err
		}
	case demo:
		labeled, err := dataset.GenerateMixed(dataset.MixedConfig{
			BenignConfig: dataset.BenignConfig{Seed: seed},
		})
		if err != nil {
			return err
		}
		trace = labeled.Trace
		fmt.Printf("demo attack dataset: %d records, %d labeled malicious\n",
			len(trace), labeled.MaliciousCount())
	default:
		return fmt.Errorf("provide -csv FILE or -demo")
	}

	aeScores := models.ScoreTraceAEBatched(trace, nn.Float32)
	lstmScores := models.ScoreTraceLSTMBatched(trace, nn.Float32)

	report := func(name string, scores []mobiwatch.WindowScore, span int) {
		anomalous := 0
		for _, s := range scores {
			if s.Anomalous {
				anomalous++
			}
		}
		fmt.Printf("\n%s: %d/%d windows anomalous (threshold %.6f)\n",
			name, anomalous, len(scores), scores[0].Threshold)

		sorted := append([]mobiwatch.WindowScore(nil), scores...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Score > sorted[j].Score })
		for i := 0; i < show && i < len(sorted); i++ {
			s := sorted[i]
			fmt.Printf("  #%d window@%d score=%.6f", i+1, s.Index, s.Score)
			if s.Anomalous {
				fmt.Printf("  ANOMALOUS")
			}
			fmt.Println()
			for j := s.Index; j < s.Index+span && j < len(trace); j++ {
				fmt.Printf("      %s\n", trace[j])
			}
		}
	}
	if len(aeScores) > 0 {
		report("Autoencoder", aeScores, models.Window)
	}
	if len(lstmScores) > 0 {
		report("LSTM", lstmScores, models.Window+1)
	}
	return nil
}
