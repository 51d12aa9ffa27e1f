package core

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/6g-xsec/xsec/internal/analyzer"
	"github.com/6g-xsec/xsec/internal/corenet"
	"github.com/6g-xsec/xsec/internal/e2ap"
	"github.com/6g-xsec/xsec/internal/gnb"
	"github.com/6g-xsec/xsec/internal/llm"
	"github.com/6g-xsec/xsec/internal/mitigate"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/ric"
	"github.com/6g-xsec/xsec/internal/sdl"
	"github.com/6g-xsec/xsec/internal/smo"
)

// caseBuffer bounds a node's processed-case stream; a case nobody has
// read by then is dropped and counted.
const caseBuffer = 128

// Node is one RIC node's whole loop (Figure 3), wired in this one place:
// the shipped gNB agent ⇄ E2 loopback ⇄ near-RT RIC over the caller's
// SDL, the expert endpoint, and — once Deploy has models — MobiWatch →
// triage → analyzer pool → llm.Service → mitigation engine → case
// stream. Framework is the single-node caller (its own SDL, ledger,
// virtual clock, SMO); fed.Instance is the federated one (a store per
// instance, the cluster's ledger, wall clock, policies from the bus).
// Provenance goes to whatever ledger the caller made active; a Node
// never calls prov.SetActive.
type Node struct {
	SDL *sdl.Store
	RIC *ric.Platform
	GNB *gnb.GNB
	AMF *corenet.AMF
	// Opts is what NewNode was given, defaults filled in.
	Opts Options

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
}

// NewNode brings up a node's data and control plane — gNB (stamping
// telemetry with clock; nil means wall time), AMF, RIC over store, the
// E2 loopback between them, the expert endpoint — and returns once the
// E2 set-up handshake is done. Of opts it reads Seed, NodeID, the LLM*
// fields and the Mitigate* fields; the xApps come up in Deploy.
func NewNode(opts Options, store *sdl.Store, clock func() time.Time) (_ *Node, err error) {
	opts.defaults()
	amf := corenet.NewAMF(opts.Seed + 1)
	g, err := gnb.New(gnb.Config{NodeID: opts.NodeID, AMF: amf, Clock: clock})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// E2 loopback: the gNB agent on one end, the RIC E2T on the other.
	ricEnd, nodeEnd := e2ap.Pipe()
	n := &Node{
		SDL:       store,
		RIC:       ric.NewPlatform(store),
		GNB:       g,
		AMF:       amf,
		Opts:      opts,
		nodeEnd:   nodeEnd,
		agentDone: make(chan struct{}),
		cases:     make(chan *analyzer.Case, caseBuffer),
	}
	go n.RIC.AttachNode(ricEnd)
	go func() {
		defer close(n.agentDone)
		// Close ends the loop by closing the transport; a failed set-up
		// shows as the node never attaching, checked below.
		_ = g.ServeE2(nodeEnd)
	}()
	live.Store(n, struct{}{})
	// From here on something is running: every error return unwinds
	// through Close.
	defer func() {
		if err != nil {
			n.Close()
		}
	}()

	if opts.LLMBaseURL == "" {
		var addr string
		// The expert listens for other processes (LLMBaseURL); the node's
		// own analyzer calls it in-process, so a verdict does not queue
		// behind the network poller when ingest has the CPUs saturated.
		expert := llm.NewServer()
		n.llmLocal = expert.Transport()
		addr, n.llmShutdown, err = expert.Listen("127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("core: starting expert service: %w", err)
		}
		n.llmAddr = "http://" + addr
	} else {
		n.llmAddr = opts.LLMBaseURL
	}

	deadline := time.Now().Add(2 * time.Second)
	for len(n.RIC.Nodes()) == 0 {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("core: gNB %s did not complete E2 setup", opts.NodeID)
		}
		time.Sleep(time.Millisecond)
	}
	return n, nil
}

// Deploy registers and starts the xApps on models: MobiWatch subscribed
// as run says (the node fills in NodeID), the LLM analyzer pool behind
// the serving layer, and — unless Options.Mitigate is empty — the
// mitigation engine. mobiwatch.Run returns once the agent has admitted
// the subscription, so records injected after Deploy have a route.
func (n *Node) Deploy(models *mobiwatch.Models, run mobiwatch.RunOptions) error {
	nodeID := n.GNB.NodeID()
	xappWatch, err := n.RIC.RegisterXApp("mobiwatch")
	if err != nil {
		return err
	}
	if _, err := n.RIC.RegisterXApp("llm-analyzer"); err != nil {
		return err
	}
	run.NodeID = nodeID
	n.watch, err = mobiwatch.Run(xappWatch, models, run)
	if err != nil {
		return err
	}
	client := llm.NewClient(n.llmAddr, n.Opts.LLMModel)
	if n.llmLocal != nil {
		client.HTTPClient = &http.Client{Transport: n.llmLocal}
	}
	// The governor's journal lands in the node's SDL.
	n.llmServing = llm.NewService(client, llm.ServingOptions{Store: n.SDL})
	// Colocated nodes each answer /healthz under their own name.
	n.llmServing.RegisterHealth("llm-serving/" + nodeID)
	n.anlz = analyzer.New(n.llmServing, n.SDL)

	if n.Opts.Mitigate != "" {
		mode, err := mitigate.ParseMode(n.Opts.Mitigate)
		if err != nil {
			return err
		}
		xappMit, err := n.RIC.RegisterXApp("mitigation-engine")
		if err != nil {
			return err
		}
		n.mitigator = mitigate.New(mitigate.Config{
			NodeID: nodeID,
			Issuer: xappMit,
			Store:  n.SDL,
			Mode:   mode,
			TTL:    n.Opts.MitigateTTL,
		})
	}
	pumpCtx, cancel := context.WithCancel(context.Background())
	n.pumpCancel, n.pumpDone = cancel, make(chan struct{})
	go n.pump(pumpCtx)
	return nil
}

// ApplyPolicy applies one A1 policy to the running xApps: detection
// thresholds re-fit without redeployment and the mitigation engine
// re-governed. Framework's A1 watch and the federation bus fan-out both
// deliver policies through this path.
func (n *Node) ApplyPolicy(policy smo.Policy) {
	if n.watch != nil && policy.ThresholdPercentile > 0 {
		// Invalid percentiles are operator error; the policy simply
		// does not take effect.
		_ = n.watch.SetThresholdPercentile(policy.ThresholdPercentile)
	}
	if n.mitigator != nil {
		n.mitigator.ApplyPolicy(policy)
	}
}

// pump turns alerts into cases: the analyzer pool's workers pull from
// MobiWatch's triage queue, which folds an incident's flagged windows into
// one alert (one incident, one LLM round trip) and decides what a free
// worker analyses next. ctx cancellation (node shutdown) aborts in-flight
// REST calls.
func (n *Node) pump(ctx context.Context) {
	defer close(n.pumpDone)
	defer close(n.cases)
	for c := range n.anlz.RunPool(ctx, n.watch, analyzer.PoolOptions{Workers: n.Opts.LLMWorkers}) {
		if c.Control != nil && n.mitigator != nil {
			// The engine governs, journals, issues, and rolls back.
			n.mitigator.Submit(c)
		}
		select {
		case n.cases <- c:
		default:
			n.casesDropped.Add(1)
			obsCasesDropped.Inc()
			obs.L().Warn("core: case stream full, processed case dropped",
				"node", c.Alert.NodeID, "model", string(c.Alert.Model))
		}
	}
}

// LLMBaseURL reports the expert endpoint in use.
func (n *Node) LLMBaseURL() string { return n.llmAddr }

// Watch exposes the MobiWatch runtime (nil before Deploy).
func (n *Node) Watch() *mobiwatch.Runtime { return n.watch }

// Cases streams processed incidents (after Deploy); Close closes it.
func (n *Node) Cases() <-chan *analyzer.Case { return n.cases }

// WatchStats exposes the MobiWatch runtime counters (nil before Deploy).
func (n *Node) WatchStats() *mobiwatch.Stats {
	if n.watch == nil {
		return nil
	}
	return n.watch.Stats()
}

// AnalyzerStats exposes the analyzer counters (nil before Deploy).
func (n *Node) AnalyzerStats() *analyzer.Stats {
	if n.anlz == nil {
		return nil
	}
	return n.anlz.Stats()
}

// Analyzer exposes the analyzer xApp (nil before Deploy).
func (n *Node) Analyzer() *analyzer.Analyzer { return n.anlz }

// Mitigator exposes the mitigation engine (nil unless Options.Mitigate
// deployed it).
func (n *Node) Mitigator() *mitigate.Engine { return n.mitigator }

// Close stops the node in the one order every caller gets: engine (its
// in-flight controls still need the E2 path) → MobiWatch → analyzer
// pool → serving layer → RIC and the gNB agent → expert. It returns
// once the agent's serve loop and the case pump have exited, so nothing
// of this node is counted, journaled or recorded after it.
func (n *Node) Close() {
	live.Delete(n)
	if n.mitigator != nil {
		n.mitigator.Close()
	}
	if n.watch != nil {
		n.watch.Stop()
	}
	if n.pumpCancel != nil {
		// Aborts in-flight expert REST calls (the serving layer degrades
		// any straggler to a rule-based verdict).
		n.pumpCancel()
		<-n.pumpDone
	}
	if n.llmServing != nil {
		n.llmServing.Close()
	}
	n.RIC.Close()
	n.nodeEnd.Close()
	<-n.agentDone
	if n.llmShutdown != nil {
		n.llmShutdown()
	}
}

// live is the set of nodes between NewNode and Close (*Node → struct{}),
// which xsec_core_case_queue_depth sums over: colocated nodes share the
// series, and a closed node (and its case channel) is not kept reachable
// by it.
var live sync.Map

func init() {
	obs.NewGaugeFunc("xsec_core_case_queue_depth",
		"Processed cases waiting to be consumed.", func() float64 {
			depth := 0
			live.Range(func(n, _ any) bool {
				depth += len(n.(*Node).cases)
				return true
			})
			return float64(depth)
		})
}

// obsCasesDropped counts processed cases lost to a full case stream.
var obsCasesDropped = obs.NewCounter("xsec_core_cases_dropped_total",
	"Processed cases dropped because the case stream was full.")
