package main

import (
	"fmt"
	"time"

	"github.com/6g-xsec/xsec/internal/core"
	"github.com/6g-xsec/xsec/internal/e2ap"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/obs"
)

// reportPeriod is the E2 report interval every shipped cmd/ and
// examples/ caller sets; everything else stays at core.Options defaults.
const reportPeriod = 10 * time.Millisecond

// config sizes one invocation. defaultConfig is what BENCHMARK.json
// measures; the smoke test shrinks it and runs the same code.
type config struct {
	Seed    int64
	Seconds float64 // measured interval per workload

	TrainSessions  int // benign sessions collected for training
	ReplaySessions int // held-out benign sessions kept as the replay trace
	Epochs         int
	Setups         int // set-up repetitions; setup_s is their median

	Warmup      time.Duration // untimed, before the measured interval
	SessionRate float64       // benign sessions per second (open loop)
	DrainCap    time.Duration
}

func defaultConfig() config {
	return config{
		Seed:           1,
		Seconds:        20,
		TrainSessions:  120,
		ReplaySessions: 240,
		Epochs:         5,
		Setups:         3,
		Warmup:         2 * time.Second,
		SessionRate:    100,
		DrainCap:       5 * time.Second,
	}
}

// trainSeed pins model initialisation and the training corpus. The
// trained bundle is configuration of the system under test, not an
// input: were it to follow -seed, every seed would measure a different
// detector (other thresholds, other false-positive rate) and no two
// runs would be comparable. -seed drives what the framework is fed: UE
// behaviour, the replay trace and the arrival schedules.
const trainSeed = 1

// fixture is what set-up hands every workload.
type fixture struct {
	Models *mobiwatch.Models
	Replay mobiflow.Trace // held-out benign telemetry, Seq-ordered
	// SetupS holds the wall time of each set-up repetition.
	SetupS []float64
}

// setup collects benign telemetry, trains MobiWatch the way the SMO
// workflow ships it, collects a second, held-out trace for replay, and
// deploys the xApps once.
// It runs cfg.Setups times so that setup_s is a median; training is
// deterministic per seed, so every repetition builds the same bundle.
func setup(cfg config) (*fixture, error) {
	fx := &fixture{}
	for i := 0; i < cfg.Setups; i++ {
		start := time.Now()
		models, replay, err := setupOnce(cfg)
		if err != nil {
			return nil, err
		}
		fx.SetupS = append(fx.SetupS, time.Since(start).Seconds())
		fx.Models, fx.Replay = models, replay
	}
	return fx, nil
}

func setupOnce(cfg config) (*mobiwatch.Models, mobiflow.Trace, error) {
	models, err := train(cfg)
	if err != nil {
		return nil, nil, err
	}
	// The replay trace comes from a framework of its own, seeded by
	// -seed, so it is held out from training and varies with the seed.
	fw, err := core.New(core.Options{Seed: cfg.Seed, ReportPeriod: reportPeriod})
	if err != nil {
		return nil, nil, err
	}
	defer fw.Close()
	replay, err := fw.CollectBenign(cfg.ReplaySessions)
	if err != nil {
		return nil, nil, err
	}
	if len(replay) < chunkRecords {
		return nil, nil, fmt.Errorf("setup: replay trace has %d records, need at least %d", len(replay), chunkRecords)
	}
	replay.SortBySeq()
	return models, replay, deploy(cfg, models)
}

// newFramework is core.New plus a wait for the E2 set-up handshake to
// finish. core.New returns once the RIC has registered the node, which is
// before its E2SetupResponse is on the wire; a subscription issued in that
// gap can overtake the response, the gNB agent then reads it as a refused
// set-up and exits, and the subscription times out. Callers that train
// between New and DeployXApps never see the gap; the benchmark deploys at
// once, so it waits until the agent has received the response.
func newFramework(opts core.Options) (*core.Framework, error) {
	received := func() float64 {
		v, _, _ := pick(obs.Default.Snapshot(), "xsec_e2ap_messages_total", "dir", "rx", "type", e2ap.TypeE2SetupResponse.String())
		return v
	}
	before := received()
	fw, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	for deadline := time.Now().Add(2 * time.Second); received() == before; {
		if time.Now().After(deadline) {
			fw.Close()
			return nil, fmt.Errorf("gNB agent did not receive the E2 set-up response")
		}
		time.Sleep(time.Millisecond)
	}
	return fw, nil
}

// deploy builds a framework around the trained bundle and starts its
// xApps, as every workload does before traffic flows, so that work a
// later change moves from the measured interval into deployment shows
// in setup_s.
func deploy(cfg config, models *mobiwatch.Models) error {
	fw, err := newFramework(core.Options{Seed: cfg.Seed, ReportPeriod: reportPeriod, Mitigate: "enforce"})
	if err != nil {
		return err
	}
	defer fw.Close()
	fw.Models = models
	return fw.DeployXApps()
}

func train(cfg config) (*mobiwatch.Models, error) {
	fw, err := core.New(core.Options{
		Seed:         trainSeed,
		ReportPeriod: reportPeriod,
		TrainOpts:    mobiwatch.TrainOptions{Epochs: cfg.Epochs, Seed: trainSeed},
	})
	if err != nil {
		return nil, err
	}
	defer fw.Close()
	benign, err := fw.CollectBenign(cfg.TrainSessions)
	if err != nil {
		return nil, err
	}
	if err := fw.Train(benign); err != nil {
		return nil, err
	}
	return fw.Models, nil
}
