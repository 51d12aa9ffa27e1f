// Package core assembles the 6G-XSec framework (Figure 3 of the paper).
// Framework is the one place the loop is wired — gNB agent ⇄ E2 ⇄
// near-RT RIC → MobiWatch → triage → analyzer pool → llm.Service →
// mitigation engine → case stream — with its SDL, provenance ledger,
// SMO and virtual clock; DESIGN.md §11, "Composition", says what it
// builds and the shutdown order. It is the embedding API the executables
// and examples build on:
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
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/6g-xsec/xsec/internal/analyzer"
	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/corenet"
	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/e2ap"
	"github.com/6g-xsec/xsec/internal/gnb"
	"github.com/6g-xsec/xsec/internal/llm"
	"github.com/6g-xsec/xsec/internal/mitigate"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/nas"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/ric"
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

// caseBuffer bounds the processed-case stream; a case nobody has read
// by then is dropped and counted.
const caseBuffer = 128

// Framework is a fully assembled single-node 6G-XSec deployment: the
// shipped gNB agent ⇄ E2 loopback ⇄ near-RT RIC over its own SDL, the
// expert endpoint, and — once DeployXApps has models — MobiWatch →
// triage → analyzer pool → llm.Service → mitigation engine → case
// stream; with them the provenance ledger, the SMO (model registry, A1
// policy store), the virtual clock the simulated UEs advance, and the
// metrics listener.
type Framework struct {
	SDL *sdl.Store
	RIC *ric.Platform
	GNB *gnb.GNB
	AMF *corenet.AMF
	// Opts is what New was given, defaults filled in.
	Opts Options

	Registry *smo.Registry
	A1       *smo.A1

	// Models is the deployed MobiWatch bundle (after Train/Deploy).
	Models *mobiwatch.Models

	nodeEnd   *e2ap.Endpoint // the agent's end of the E2 loopback
	agentDone chan struct{}  // closed when the agent's serve loop exits

	llmAddr     string
	llmLocal    http.RoundTripper // reaches the built-in expert without a socket; nil for an external endpoint
	llmShutdown func() error

	watch      *mobiwatch.Runtime
	anlz       *analyzer.Analyzer
	llmServing *llm.Service
	mitigator  *mitigate.Engine
	pumpCancel context.CancelFunc
	pumpDone   chan struct{}

	cases        chan *analyzer.Case
	casesDropped atomic.Uint64
	// unregister removes the framework from xsec_core_case_queue_depth.
	unregister func()

	a1Cancel func()

	prov     *prov.Ledger
	prevProv *prov.Ledger

	obsAddr     string
	obsShutdown func() error

	fleetSize int
	clock     *dataset.VClock
}

// New brings up the data and control plane — gNB (stamping telemetry
// with the virtual clock), AMF, RIC over a fresh SDL, the E2 loopback
// between them, the expert endpoint, the provenance ledger, the SMO and
// the metrics listener — and returns once the E2 set-up handshake is
// done. xApps are deployed separately (DeployXApps) once models exist.
func New(opts Options) (_ *Framework, err error) {
	opts.defaults()
	clock := dataset.NewVClock(time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC))
	store := sdl.New()
	amf := corenet.NewAMF(opts.Seed + 1)
	g, err := gnb.New(gnb.Config{NodeID: opts.NodeID, AMF: amf, Clock: clock.Now})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// Install the SDL-backed provenance ledger before any pipeline
	// goroutine starts, so every event of every chain is persisted and
	// xsec-audit can reconstruct evidence after the run.
	ledger := prov.New(prov.Options{Store: store})
	// E2 loopback: the gNB agent on one end, the RIC E2T on the other.
	ricEnd, nodeEnd := e2ap.Pipe()
	fw := &Framework{
		SDL:       store,
		RIC:       ric.NewPlatform(store),
		GNB:       g,
		AMF:       amf,
		Opts:      opts,
		Registry:  smo.NewRegistry(store),
		A1:        smo.NewA1(store),
		nodeEnd:   nodeEnd,
		agentDone: make(chan struct{}),
		cases:     make(chan *analyzer.Case, caseBuffer),
		clock:     clock,
		prov:      ledger,
		prevProv:  prov.SetActive(ledger),
	}
	go fw.RIC.AttachNode(ricEnd)
	go func() {
		defer close(fw.agentDone)
		// Close ends the loop by closing the transport; a failed set-up
		// shows as the node never attaching, checked below.
		_ = g.ServeE2(nodeEnd)
	}()
	fw.unregister = obsCaseQueueDepth.Add(func() float64 { return float64(len(fw.cases)) })
	// From here on something is running: every error return unwinds
	// through Close, which restores the previous ledger.
	defer func() {
		if err != nil {
			fw.Close()
		}
	}()

	if opts.LLMBaseURL == "" {
		var addr string
		// The expert listens for other processes (LLMBaseURL); the
		// framework's own analyzer calls it in-process, so a verdict does
		// not queue behind the network poller when ingest has the CPUs
		// saturated.
		expert := llm.NewServer()
		fw.llmLocal = expert.Transport()
		addr, fw.llmShutdown, err = expert.Listen("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("core: starting expert service: %w", err)
		}
		fw.llmAddr = "http://" + addr
	} else {
		fw.llmAddr = opts.LLMBaseURL
	}

	deadline := time.Now().Add(2 * time.Second)
	for len(fw.RIC.Nodes()) == 0 {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("core: gNB %s did not complete E2 setup", opts.NodeID)
		}
		time.Sleep(time.Millisecond)
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

// DeployXApps registers and starts the xApps on Models: MobiWatch
// subscribed at Options.ReportPeriod, the LLM analyzer pool behind the
// serving layer, and — unless Options.Mitigate is empty — the mitigation
// engine; then it watches A1 for policies. Train (or assign Models)
// first. mobiwatch.Run returns once the agent has admitted the
// subscription, so records injected after DeployXApps have a route.
func (f *Framework) DeployXApps() error {
	if f.Models == nil {
		return fmt.Errorf("core: no models deployed; call Train first")
	}
	nodeID := f.GNB.NodeID()
	xappWatch, err := f.RIC.RegisterXApp("mobiwatch")
	if err != nil {
		return err
	}
	if _, err := f.RIC.RegisterXApp("llm-analyzer"); err != nil {
		return err
	}
	f.watch, err = mobiwatch.Run(xappWatch, f.Models, mobiwatch.RunOptions{NodeID: nodeID, ReportPeriod: f.Opts.ReportPeriod})
	if err != nil {
		return err
	}
	client := llm.NewClient(f.llmAddr, f.Opts.LLMModel)
	if f.llmLocal != nil {
		client.HTTPClient = &http.Client{Transport: f.llmLocal}
	}
	// The governor's journal lands in the framework's SDL.
	f.llmServing = llm.NewService(client, llm.ServingOptions{Store: f.SDL})
	// Colocated frameworks each answer /healthz under their own name.
	f.llmServing.RegisterHealth("llm-serving/" + nodeID)
	f.anlz = analyzer.New(f.llmServing, f.SDL)

	if f.Opts.Mitigate != "" {
		mode, err := mitigate.ParseMode(f.Opts.Mitigate)
		if err != nil {
			return err
		}
		xappMit, err := f.RIC.RegisterXApp("mitigation-engine")
		if err != nil {
			return err
		}
		f.mitigator = mitigate.New(mitigate.Config{
			NodeID: nodeID,
			Issuer: xappMit,
			Store:  f.SDL,
			Mode:   mode,
			TTL:    f.Opts.MitigateTTL,
		})
	}
	pumpCtx, cancel := context.WithCancel(context.Background())
	f.pumpCancel, f.pumpDone = cancel, make(chan struct{})
	go f.pump(pumpCtx)

	// A1 policy feed: operator threshold changes apply to the running
	// detector without redeployment.
	events, cancelA1 := f.A1.Watch(16)
	f.a1Cancel = cancelA1
	go func() {
		for ev := range events {
			if ev.Deleted {
				continue
			}
			policy, ok := f.A1.Get(ev.Key)
			if !ok {
				continue
			}
			f.applyPolicy(policy)
		}
	}()
	return nil
}

// applyPolicy applies one A1 policy to the running xApps: detection
// thresholds re-fit without redeployment and the mitigation engine
// re-governed.
func (f *Framework) applyPolicy(policy smo.Policy) {
	if f.watch != nil && policy.ThresholdPercentile > 0 {
		// Invalid percentiles are operator error; the policy simply
		// does not take effect.
		_ = f.watch.SetThresholdPercentile(policy.ThresholdPercentile)
	}
	if f.mitigator != nil {
		f.mitigator.ApplyPolicy(policy)
	}
}

// pump turns alerts into cases: the analyzer pool's workers pull from
// MobiWatch's triage queue, which folds an incident's flagged windows into
// one alert (one incident, one LLM round trip) and decides what a free
// worker analyses next. ctx cancellation (Close) aborts in-flight REST
// calls.
func (f *Framework) pump(ctx context.Context) {
	defer close(f.pumpDone)
	defer close(f.cases)
	for c := range f.anlz.RunPool(ctx, f.watch, analyzer.PoolOptions{Workers: f.Opts.LLMWorkers}) {
		if c.Control != nil && f.mitigator != nil {
			// The engine governs, journals, issues, and rolls back.
			f.mitigator.Submit(c)
		}
		select {
		case f.cases <- c:
		default:
			f.casesDropped.Add(1)
			obsCasesDropped.Inc()
			obs.L().Warn("core: case stream full, processed case dropped",
				"node", c.Alert.NodeID, "model", string(c.Alert.Model))
		}
	}
}

// LLMBaseURL reports the expert endpoint in use.
func (f *Framework) LLMBaseURL() string { return f.llmAddr }

// Cases streams processed incidents (after DeployXApps); Close closes it.
func (f *Framework) Cases() <-chan *analyzer.Case { return f.cases }

// WatchStats exposes the MobiWatch runtime counters (nil before
// DeployXApps).
func (f *Framework) WatchStats() *mobiwatch.Stats {
	if f.watch == nil {
		return nil
	}
	return f.watch.Stats()
}

// AnalyzerStats exposes the analyzer counters (nil before DeployXApps).
func (f *Framework) AnalyzerStats() *analyzer.Stats {
	if f.anlz == nil {
		return nil
	}
	return f.anlz.Stats()
}

// Analyzer exposes the analyzer xApp (nil before DeployXApps).
func (f *Framework) Analyzer() *analyzer.Analyzer { return f.anlz }

// Mitigator exposes the mitigation engine (nil unless Options.Mitigate
// deployed it).
func (f *Framework) Mitigator() *mitigate.Engine { return f.mitigator }

// Prov exposes the framework's provenance ledger.
func (f *Framework) Prov() *prov.Ledger { return f.prov }

// Close stops everything in the one order every caller gets: A1 watch →
// engine (its in-flight controls still need the E2 path) → MobiWatch →
// analyzer pool → serving layer → RIC and the gNB agent → expert →
// metrics listener → ledger. It waits for the agent's serve loop and the
// case pump to exit, so nothing of this framework is counted, journaled
// or recorded after it returns.
func (f *Framework) Close() {
	if f.a1Cancel != nil {
		f.a1Cancel()
	}
	f.unregister()
	if f.mitigator != nil {
		f.mitigator.Close()
	}
	if f.watch != nil {
		f.watch.Stop()
	}
	if f.pumpCancel != nil {
		// Aborts in-flight expert REST calls (the serving layer degrades
		// any straggler to a rule-based verdict).
		f.pumpCancel()
		<-f.pumpDone
	}
	if f.llmServing != nil {
		f.llmServing.Close()
	}
	f.RIC.Close()
	f.nodeEnd.Close()
	<-f.agentDone
	if f.llmShutdown != nil {
		f.llmShutdown()
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

// obsCaseQueueDepth sums the case streams of the frameworks between New
// and Close.
var obsCaseQueueDepth = obs.NewSumGauge("xsec_core_case_queue_depth",
	"Processed cases waiting to be consumed.")

// obsCasesDropped counts processed cases lost to a full case stream.
var obsCasesDropped = obs.NewCounter("xsec_core_cases_dropped_total",
	"Processed cases dropped because the case stream was full.")
