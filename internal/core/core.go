// Package core assembles the 6G-XSec framework (Figure 3 of the paper).
// Node (node.go) is the one place the loop is wired — gNB agent ⇄ E2 ⇄
// near-RT RIC → MobiWatch → triage → analyzer pool → llm.Service →
// mitigation engine → case stream; DESIGN.md §11, "Composition", says
// what it builds, what each of its two callers passes, and the shutdown
// order. Framework is the single-node caller and the embedding API the
// executables and examples build on:
//
//	fw, _ := core.New(core.Options{Seed: 1})
//	defer fw.Close()
//	fw.ProvisionFleet(10)
//	benign, _ := fw.CollectBenign(120)
//	fw.Train(benign)
//	fw.DeployXApps()
//	... drive traffic via fw.GNB / fw.NewUE, consume fw.Cases()
package core

import (
	"fmt"
	"time"

	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/corenet"
	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/nas"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/sdl"
	"github.com/6g-xsec/xsec/internal/smo"
	"github.com/6g-xsec/xsec/internal/ue"
)

// Options configures the framework.
type Options struct {
	// Seed drives all randomness (default 1).
	Seed int64
	// NodeID names the gNB (default "gnb-001").
	NodeID string
	// ReportPeriod is the E2 telemetry report interval (default 20 ms).
	ReportPeriod time.Duration
	// TrainOpts parameterizes MobiWatch training.
	TrainOpts mobiwatch.TrainOptions
	// LLMModel selects the analyst personality (default "chatgpt-4o").
	LLMModel string
	// LLMBaseURL points at an external endpoint; empty starts the
	// built-in expert service.
	LLMBaseURL string
	// LLMWorkers bounds the expert round trips the analyzer pool keeps in
	// flight (default 4): one round-trip worker each. Verdicts the serving
	// layer gives from memory are served beside them (analyzer.RunPool).
	LLMWorkers int
	// Mitigate deploys the mitigation-engine xApp in the given mode
	// ("off", "dry-run", "enforce"); empty leaves it undeployed, and
	// cases only surface their recommended control. The engine is the
	// one way a control reaches the gNB: rate-limited, journaled, rolled
	// back on TTL and recorded on the prov chain. A1 policies can switch
	// the mode at runtime.
	Mitigate string
	// MitigateTTL overrides the engine's rollback TTL for reversible
	// actions (default 30 s).
	MitigateTTL time.Duration
	// MetricsAddr, when non-empty, serves the observability endpoint
	// (/metrics Prometheus text, /traces, /debug/pprof) on this
	// address, e.g. ":9090". Use "127.0.0.1:0" to pick a free port;
	// MetricsAddr() reports the bound address.
	MetricsAddr string
}

func (o *Options) defaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.NodeID == "" {
		o.NodeID = "gnb-001"
	}
	if o.ReportPeriod == 0 {
		o.ReportPeriod = 20 * time.Millisecond
	}
	if o.LLMModel == "" {
		o.LLMModel = "chatgpt-4o"
	}
}

// Framework is a fully assembled single-node 6G-XSec deployment: one
// Node plus what only a standalone deployment has — its own SDL and
// provenance ledger, the SMO (model registry, A1 policy store), the
// virtual clock the simulated UEs advance, and the metrics listener.
type Framework struct {
	*Node

	Registry *smo.Registry
	A1       *smo.A1

	// Models is the deployed MobiWatch bundle (after Train/Deploy).
	Models *mobiwatch.Models

	a1Cancel func()

	prov     *prov.Ledger
	prevProv *prov.Ledger

	obsAddr     string
	obsShutdown func() error

	fleetSize int
	clock     *dataset.VClock
}

// New assembles the data plane, control plane, and expert service. xApps
// are deployed separately (DeployXApps) once models exist.
func New(opts Options) (_ *Framework, err error) {
	opts.defaults()
	clock := dataset.NewVClock(time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC))
	store := sdl.New()
	// Install the SDL-backed provenance ledger before any pipeline
	// goroutine starts, so every event of every chain is persisted and
	// xsec-audit can reconstruct evidence after the run.
	ledger := prov.New(prov.Options{Store: store})
	fw := &Framework{
		Registry: smo.NewRegistry(store),
		A1:       smo.NewA1(store),
		clock:    clock,
		prov:     ledger,
		prevProv: prov.SetActive(ledger),
	}
	// From here on something is installed: every error return unwinds
	// through Close, which restores the previous ledger.
	defer func() {
		if err != nil {
			fw.Close()
		}
	}()
	if fw.Node, err = NewNode(opts, store, clock.Now); err != nil {
		return nil, err
	}
	if opts.MetricsAddr != "" {
		fw.obsAddr, fw.obsShutdown, err = obs.ListenAndServe(opts.MetricsAddr)
		if err != nil {
			return nil, fmt.Errorf("core: starting metrics endpoint: %w", err)
		}
	}
	return fw, nil
}

// Clock returns the data plane's virtual clock.
func (f *Framework) Clock() *dataset.VClock { return f.clock }

// MetricsAddr reports the bound observability address ("" when
// Options.MetricsAddr was unset).
func (f *Framework) MetricsAddr() string { return f.obsAddr }

// ProvisionFleet provisions n subscribers and returns their UE drivers,
// cycling through the commodity-device profiles.
func (f *Framework) ProvisionFleet(n int) []*ue.UE {
	fleet := make([]*ue.UE, n)
	for i := 0; i < n; i++ {
		fleet[i] = f.NewUE(ue.Profiles[i%len(ue.Profiles)], i)
	}
	f.fleetSize += n
	return fleet
}

// NewUE provisions one subscriber with the given profile. idx
// disambiguates SUPIs/keys across calls.
func (f *Framework) NewUE(profile ue.Profile, idx int) *ue.UE {
	supi := cell.SUPI(fmt.Sprintf("imsi-00101%010d", f.fleetSize+idx+1))
	var k [nas.KeySize]byte
	copy(k[:], fmt.Sprintf("subscriber-key-%09d", f.fleetSize+idx+1))
	f.AMF.AddSubscriber(corenet.Subscriber{SUPI: supi, K: k})
	u := ue.New(supi, k, profile, f.Opts.Seed+int64(f.fleetSize+idx)*31)
	u.Pace = func() { f.clock.Advance(10 * time.Millisecond) }
	return u
}

// CollectBenign drives n benign sessions across a temporary fleet and
// returns the collected telemetry, leaving the record buffer drained so
// live detection starts clean.
func (f *Framework) CollectBenign(sessions int) (mobiflow.Trace, error) {
	fleet := f.ProvisionFleet(10)
	for i := 0; i < sessions; i++ {
		u := fleet[i%len(fleet)]
		res, err := u.RunSession(f.GNB)
		if err != nil {
			return nil, fmt.Errorf("core: benign session %d: %w", i, err)
		}
		if !u.Profile.Deregisters {
			f.GNB.ReleaseUE(res.UEID)
			f.AMF.ReleaseUE(res.UEID)
		}
		f.clock.Advance(300 * time.Millisecond)
	}
	return f.GNB.DrainRecords(), nil
}

// Train fits MobiWatch on benign telemetry via the SMO workflow and
// deploys the published bundle.
func (f *Framework) Train(benign mobiflow.Trace) error {
	job := smo.TrainingJob{Opts: f.Opts.TrainOpts}
	if _, _, err := job.Run(f.Registry, benign); err != nil {
		return err
	}
	models, _, err := smo.Deploy(f.Registry, "mobiwatch")
	if err != nil {
		return err
	}
	f.Models = models
	return nil
}

// DeployXApps registers and starts MobiWatch, the LLM Analyzer and (with
// Options.Mitigate) the mitigation engine. Train (or assign Models) first.
func (f *Framework) DeployXApps() error {
	if f.Models == nil {
		return fmt.Errorf("core: no models deployed; call Train first")
	}
	err := f.Deploy(f.Models, mobiwatch.RunOptions{ReportPeriod: f.Opts.ReportPeriod})
	if err != nil {
		return err
	}
	// A1 policy feed: operator threshold changes apply to the running
	// detector without redeployment.
	events, cancel := f.A1.Watch(16)
	f.a1Cancel = cancel
	go func() {
		for ev := range events {
			if ev.Deleted {
				continue
			}
			policy, ok := f.A1.Get(ev.Key)
			if !ok {
				continue
			}
			f.ApplyPolicy(policy)
		}
	}()
	return nil
}

// Prov exposes the framework's provenance ledger.
func (f *Framework) Prov() *prov.Ledger { return f.prov }

// Close shuts everything down: the A1 watch, the node (Node.Close), the
// metrics listener, then the ledger.
func (f *Framework) Close() {
	if f.a1Cancel != nil {
		f.a1Cancel()
	}
	if f.Node != nil {
		f.Node.Close()
	}
	if f.obsShutdown != nil {
		f.obsShutdown()
	}
	// Pipeline goroutines are quiescent: route future events (from any
	// other framework instance) back to the previous ledger, then drain
	// ours so every persisted chain is complete.
	if f.prov != nil {
		prov.SetActive(f.prevProv)
		f.prov.Close()
		f.prov = nil
	}
}
