package core

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/sdl"
	"github.com/6g-xsec/xsec/internal/smo"
)

// trainedOptions is the framework most end-to-end tests deploy: a
// 15-epoch bundle, enough for every attack class to be flagged.
var trainedOptions = Options{
	Seed:         3,
	ReportPeriod: 5 * time.Millisecond,
	TrainOpts:    mobiwatch.TrainOptions{Epochs: 15, Seed: 7},
}

// newDeployed assembles a framework, collects its 40 benign sessions,
// deploys the bundle fw.Train would fit on them and starts the xApps. It
// returns the framework, closed when the test ends, and the benign trace.
func newDeployed(t *testing.T, opts Options) (*Framework, mobiflow.Trace) {
	t.Helper()
	fw, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fw.Close)
	benign, err := fw.CollectBenign(40)
	if err != nil {
		t.Fatal(err)
	}
	// Each framework publishes to its own registry and deploys its own
	// copy: an A1 policy changes the thresholds of the copy it runs.
	if _, err := fw.Registry.Publish("mobiwatch", sharedBundle(t, fw.Opts.TrainOpts, benign)); err != nil {
		t.Fatal(err)
	}
	if fw.Models, _, err = smo.Deploy(fw.Registry, "mobiwatch"); err != nil {
		t.Fatal(err)
	}
	if err := fw.DeployXApps(); err != nil {
		t.Fatal(err)
	}
	return fw, benign
}

// bundles holds the fitted bundles of this test binary, keyed by training
// options and the benign trace: the fit is most of a framework's set-up
// under -race, and a dozen tests deploy one of two bundles.
var bundles struct {
	sync.Mutex
	byKey map[string][]byte
}

// sharedBundle returns the bytes smo.TrainingJob publishes for opts and
// benign, fitting them only the first time this binary asks.
// TestFrameworkSMOWorkflowVisible checks them against fw.Train's.
func sharedBundle(t *testing.T, opts mobiwatch.TrainOptions, benign mobiflow.Trace) []byte {
	t.Helper()
	key := fmt.Sprintf("%+v %x", opts, sha256.Sum256(mobiflow.EncodeTrace(benign)))
	bundles.Lock()
	defer bundles.Unlock()
	if b, ok := bundles.byKey[key]; ok {
		return b
	}
	reg := smo.NewRegistry(sdl.New())
	if _, _, err := (smo.TrainingJob{Opts: opts}).Run(reg, benign); err != nil {
		t.Fatal(err)
	}
	b, _, _ := reg.Latest("mobiwatch")
	if bundles.byKey == nil {
		bundles.byKey = make(map[string][]byte)
	}
	bundles.byKey[key] = b
	return b
}

// raceEnabled is set by race_test.go in a -race build.
var raceEnabled bool

// TestBenchmarkBundleBytes pins the bundle the benchmark deploys: its
// training recipe (benchmark/setup.go's train) fits these bytes, so a
// change to a training default, the fit or the calibrating engine moves
// the hash (DESIGN §7.2).
func TestBenchmarkBundleBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("a 6 s fit under -race; CI runs it at -cpu 1,2,4 without")
	}
	fw, err := New(Options{
		Seed:         1,
		ReportPeriod: 10 * time.Millisecond,
		TrainOpts:    mobiwatch.TrainOptions{Epochs: 5, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	benign, err := fw.CollectBenign(120)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Train(benign); err != nil {
		t.Fatal(err)
	}
	b, err := fw.Models.Save()
	if err != nil {
		t.Fatal(err)
	}
	const want = "d5cc89ef8db8cf0cf4a2c8b0014e2b80f1d1c135f3cb976ac81e205d2cee74f7"
	if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
		t.Errorf("sha256(benchmark bundle) = %s, want %s", got, want)
	}
}
