// Quickstart: the minimal 6G-XSec loop, fully offline.
//
// 1. Generate benign cellular traffic on the simulated testbed.
// 2. Train the MobiWatch models (autoencoder + LSTM) on it.
// 3. Generate an attack dataset and detect the anomalies.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/feature"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/nn"
)

func main() {
	// 1. Benign traffic: 60 sessions across the commodity-device fleet.
	benign, err := dataset.GenerateBenign(dataset.BenignConfig{Sessions: 60, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("benign dataset: %d telemetry records, %d UE sessions\n",
		len(benign), len(benign.UEs()))

	// 2. Train on benign traffic only — no attack samples needed.
	models, err := mobiwatch.Train(benign, mobiwatch.TrainOptions{Epochs: 20, Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained: window N=%d, AE threshold %.5f, LSTM threshold %.5f\n",
		models.Window, models.AEThreshold, models.LSTMThreshold)

	// 3. A dataset with all five attacks mixed into benign traffic.
	labeled, err := dataset.GenerateMixed(dataset.MixedConfig{
		BenignConfig:       dataset.BenignConfig{Seed: 3},
		InstancesPerAttack: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("attack dataset: %d records, %d labeled malicious\n",
		len(labeled.Trace), labeled.MaliciousCount())

	// Score every sliding window with the autoencoder, through the
	// batched engine the online xApp runs.
	scores := models.ScoreTraceAEBatched(labeled.Trace, nn.Float32)
	truth := feature.WindowLabels(labeled.Malicious, models.Window)
	var tp, fp, tn, fn int
	for i, s := range scores {
		switch {
		case s.Anomalous && truth[i]:
			tp++
		case s.Anomalous && !truth[i]:
			fp++
		case !s.Anomalous && truth[i]:
			fn++
		default:
			tn++
		}
	}
	fmt.Printf("\nautoencoder detection over %d windows:\n", len(scores))
	fmt.Printf("  true positives  %4d\n  false positives %4d\n  true negatives  %4d\n  false negatives %4d\n",
		tp, fp, tn, fn)
	fmt.Printf("  recall %.1f%%  precision %.1f%%\n",
		100*float64(tp)/float64(tp+fn), 100*float64(tp)/float64(tp+fp))

	// Show the single most anomalous window.
	best := 0
	for i, s := range scores {
		if s.Score > scores[best].Score {
			best = i
		}
	}
	fmt.Printf("\nmost anomalous window (score %.5f):\n", scores[best].Score)
	for j := best; j < best+models.Window; j++ {
		fmt.Printf("  %s\n", labeled.Trace[j])
	}
}
