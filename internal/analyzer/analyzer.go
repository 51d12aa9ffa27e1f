// Package analyzer implements the LLM Analyzer xApp (§3.3 of the paper):
// anomalous windows flagged by MobiWatch are rendered into zero-shot
// prompts, sent to an LLM endpoint over REST, and parsed into structured
// analyses (classification, explanation, attribution, remediation). The
// xApp cross-compares the detector's and the LLM's decisions — agreement
// increases confidence, disagreement routes the case to the human-
// supervision queue (the hallucination safeguard) — and recommends E2
// control actions for the closed feedback loop of Figure 3.
package analyzer

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/6g-xsec/xsec/internal/asn1lite"
	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/e2sm"
	"github.com/6g-xsec/xsec/internal/llm"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/nas"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/rrc"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// Analyzer observability. xsec_detect_latency_seconds is the paper's
// headline pipeline number: first malicious telemetry arriving at the
// RIC (the indication that completed the flagged window) to the LLM
// verdict landing, measured per processed case.
var (
	obsCases = obs.NewCounterVec("xsec_analyzer_cases_total",
		"Processed cases, by outcome.", "outcome")
	obsCaseAgree    = obsCases.With("agreement")
	obsCaseDisagree = obsCases.With("disagreement")
	obsCaseFailure  = obsCases.With("llm_failure")
	obsDetectLat    = obs.NewHistogram("xsec_detect_latency_seconds",
		"End-to-end detection latency: E2 indication arrival at the RIC to LLM verdict.",
		obs.DefLatencyBuckets)
)

// Case is one fully processed incident.
type Case struct {
	// Alert is the originating detection.
	Alert mobiwatch.Alert
	// Analysis is the LLM's structured answer (nil if the query failed).
	Analysis *llm.Analysis
	// Agree reports whether detector and LLM both consider the window
	// anomalous.
	Agree bool
	// NeedsHuman marks cases requiring operator review: detector/LLM
	// disagreement or an unusable LLM response.
	NeedsHuman bool
	// Control is the recommended closed-loop action, if any.
	Control *e2sm.ControlRequest
	// ProcessedAt stamps completion.
	ProcessedAt time.Time
}

// Stats counts analyzer activity. Cached counts verdicts the serving
// layer answered without a fresh upstream round trip (cache hits and
// coalesced followers); Degraded counts rule-based fallback verdicts
// served while the expert endpoint was saturated.
type Stats struct {
	Processed  atomic.Uint64
	Agreements atomic.Uint64
	Disagrees  atomic.Uint64
	Failures   atomic.Uint64
	Cached     atomic.Uint64
	Degraded   atomic.Uint64
}

// Expert answers for a telemetry window. Both the bare llm.Client and
// the llm.Service serving layer (cache / coalesce / hedge / shed)
// satisfy it; the analyzer does not care which is behind it. An expert
// that can also answer from memory, without a round trip, says so by
// implementing recaller (llm.Service does); RunPool then serves those
// answers beside its round-trip workers. Either way the analysis returned
// is read-only: the Service hands every cache hit the same value, and the
// analyzer only ever reads it.
type Expert interface {
	AnalyzeWindow(ctx context.Context, window mobiflow.Trace) (*llm.Analysis, error)
}

// recaller is the optional half of an Expert: Recall answers for a window
// only if it can do so at once, from memory, and never asks the endpoint.
// What it returns is served and counted by the expert as an analysis given.
type recaller interface {
	Recall(window mobiflow.Trace) (*llm.Analysis, bool)
}

// Analyzer is the xApp.
type Analyzer struct {
	client Expert
	store  *sdl.Store
	clock  func() time.Time
	stats  Stats
}

const (
	humanQueueNamespace = "analyzer/human-queue"
	// HumanQueueBytes bounds the review queue (sdl.Store.Bound): 5 MiB,
	// the newest ≈ 16 500 escalated cases at ≈ 320 B charged each (a
	// four-record window; TestHumanQueueIsBounded logs the figure). An
	// older case ages out counted (HumanQueueAgedOut) and its verdict
	// event stays on its prov chain.
	HumanQueueBytes = 5 << 20
)

// New builds an analyzer querying client and persisting its human-review
// queue in store (may be nil to skip persistence).
func New(client Expert, store *sdl.Store) *Analyzer {
	if store != nil {
		store.Bound(humanQueueNamespace, HumanQueueBytes)
	}
	return &Analyzer{client: client, store: store, clock: time.Now}
}

// Stats returns live counters.
func (a *Analyzer) Stats() *Stats { return &a.stats }

// expertWindow is what the expert is asked about: the alert's context when
// it has one.
func expertWindow(alert *mobiwatch.Alert) mobiflow.Trace {
	if len(alert.Context) > 0 {
		return alert.Context
	}
	return alert.Window
}

// process runs expert referencing for one alert. The context bounds the
// expert query: cancellation (analyzer shutdown, per-case timeout) aborts
// the in-flight REST call. A non-nil recalled is an analysis the expert
// already gave from memory, and the expert is not asked again.
func (a *Analyzer) process(ctx context.Context, alert mobiwatch.Alert, recalled *llm.Analysis) (*Case, error) {
	chainKey := obs.IndicationKey(alert.NodeID, alert.IndicationSN)
	span := obs.StartSpan(chainKey, "analyzer.process")
	defer span.End()
	if !alert.ReceivedAt.IsZero() {
		// The exemplar binds a latency bucket to the provenance chain of
		// the slowest indication it holds, so a bad quantile in /metrics
		// links straight to the /prov evidence behind it.
		defer func() {
			obsDetectLat.ObserveWithExemplar(a.clock().Sub(alert.ReceivedAt).Seconds(), chainKey)
		}()
	}
	chain := prov.ChainID{Node: alert.NodeID, SN: alert.IndicationSN}
	c := &Case{Alert: alert, ProcessedAt: a.clock()}
	window := expertWindow(&alert)
	analysis := recalled
	var err error
	if analysis == nil {
		analysis, err = a.client.AnalyzeWindow(ctx, window)
	}
	a.stats.Processed.Add(1)
	if err != nil {
		// The LLM is unreachable or hallucinated an unparseable answer:
		// the detector's verdict stands, but a human must review.
		a.stats.Failures.Add(1)
		obsCaseFailure.Inc()
		obs.L().Warn("analyzer: LLM unusable, case escalated", "node", alert.NodeID, "err", err)
		c.NeedsHuman = true
		a.enqueueHuman(c, fmt.Sprintf("llm failure: %v", err))
		prov.Record(prov.Event{
			Chain: chain,
			Kind:  prov.KindVerdict,
			At:    c.ProcessedAt,
			Label: "llm_failure",
			Note:  err.Error(),
		})
		return c, nil
	}
	c.Analysis = analysis
	c.Agree = analysis.Verdict == llm.VerdictAnomalous
	ev := prov.Event{
		Chain:  chain,
		Kind:   prov.KindVerdict,
		At:     c.ProcessedAt,
		Digest: analysis.PromptDigest,
		Model:  analysis.Model,
		Label:  analysis.Verdict.String(),
		Action: analysis.TopClass().String(),
		Score:  analysis.Confidence,
	}
	// Non-live serving sources are part of the evidence: an auditor
	// reading the chain must be able to tell a fresh expert opinion from
	// a cache replay or a degraded rule-based fallback.
	var notes []string
	switch analysis.Served {
	case llm.ServedCache, llm.ServedCoalesced:
		a.stats.Cached.Add(1)
		notes = append(notes, "served="+analysis.Served)
	case llm.ServedDegraded:
		a.stats.Degraded.Add(1)
		notes = append(notes, "served="+analysis.Served)
	}
	if c.Agree {
		a.stats.Agreements.Add(1)
		obsCaseAgree.Inc()
		c.Control = RecommendControl(analysis, window)
	} else {
		// MobiWatch flagged the window; the LLM disagrees. §3.3: human
		// supervision is required for contradictory results.
		a.stats.Disagrees.Add(1)
		obsCaseDisagree.Inc()
		c.NeedsHuman = true
		a.enqueueHuman(c, "detector/LLM disagreement")
		notes = append(notes, "detector/LLM disagreement: escalated to human review")
	}
	ev.Note = strings.Join(notes, "; ")
	prov.Record(ev)
	return c, nil
}

// PoolOptions tunes RunPool. The zero value means defaults.
type PoolOptions struct {
	// Workers is how many expert round trips the pool keeps in flight at
	// most (default 4): each round-trip worker takes an alert and stays
	// with it until the expert has answered. Answers the expert gives from
	// memory are served beside them and are not bounded by it.
	Workers int
}

const (
	// caseTimeout bounds one alert's expert query. The serving layer
	// degrades a timed-out case to a rule-based verdict, so a stuck
	// endpoint cannot stall the loop.
	caseTimeout = 15 * time.Second
	// caseBuffer sizes RunPool's output channel: a few cases per worker,
	// so a worker is free for the next alert while its consumer catches up.
	caseBuffer = 16
)

// AlertSource is where the pool's takers get their work: the MobiWatch
// triage queue (mobiwatch.Runtime). A taker takes an alert the moment it
// is free, so the source decides what is analysed next, and reports back
// whether the expert agreed, which is what lets the source fold an
// episode's later alerts into the verdict or re-arm it. A taker that can
// serve only some alerts passes want (nil: any), which the source asks at
// most once per alert and which must not block.
type AlertSource interface {
	Take(ctx context.Context, want func(*mobiwatch.Alert) bool) (mobiwatch.Alert, mobiwatch.Ticket, bool)
	Resolve(t mobiwatch.Ticket, agreed bool)
}

// RunPool analyses alerts from src until src is exhausted or ctx is
// canceled, emitting processed cases (order follows completion, not
// arrival). Each case runs under its own deadline derived from ctx, so
// analyzer shutdown cancels in-flight REST calls.
//
// The pool is opts.Workers round-trip workers, which take whatever the
// source ranks first, and, when the expert can recall, one recall lane: a
// taker that wants only alerts the expert answers from memory. The lane is
// handed its analysis by Recall and never calls AnalyzeWindow, so it is
// never inside a round trip and an answer already in memory does not wait
// for a worker that is.
func (a *Analyzer) RunPool(ctx context.Context, src AlertSource, opts PoolOptions) <-chan *Case {
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	out := make(chan *Case, caseBuffer)
	var wg sync.WaitGroup
	taker := func(want func(*mobiwatch.Alert) bool) {
		defer wg.Done()
		for {
			alert, ticket, ok := src.Take(ctx, want)
			if !ok {
				return
			}
			// A worker may be handed an alert the lane has asked about:
			// the answer rides on it, and is the one lookup it gets.
			recalled, _ := alert.Recalled.(*llm.Analysis)
			alert.Recalled = nil
			cctx, cancel := context.WithTimeout(ctx, caseTimeout)
			c, err := a.process(cctx, alert, recalled)
			cancel()
			src.Resolve(ticket, err == nil && c.Agree)
			if err != nil {
				continue
			}
			select {
			case out <- c:
			case <-ctx.Done():
				return
			}
		}
	}
	wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go taker(nil)
	}
	if r, ok := a.client.(recaller); ok {
		wg.Add(1)
		go taker(func(alert *mobiwatch.Alert) bool {
			analysis, ok := r.Recall(expertWindow(alert))
			if ok {
				alert.Recalled = analysis
			}
			return ok
		})
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// humanQueueEntry is one case held for review, stored as TLV under
// "case/<node>/<first seq>/<model>": two gNBs can number a record alike,
// and both models can flag the window that starts at it.
type humanQueueEntry struct {
	Reason, Model string
	Score         float64
	// Windows is how many flagged windows of one episode the case stands
	// for (1 + Alert.Folded); Window is the strongest of them.
	Windows uint64
	Window  mobiflow.Trace
	At      time.Time
}

// TLV tags of a stored humanQueueEntry.
const (
	tagReason = iota + 1
	tagModel
	tagScore
	tagWindows
	tagAt
	tagWindow
)

// MarshalTLV implements asn1lite.Marshaler; Window is one telemetry block.
func (h *humanQueueEntry) MarshalTLV(e *asn1lite.Encoder) {
	e.PutString(tagReason, h.Reason)
	e.PutString(tagModel, h.Model)
	e.PutFloat(tagScore, h.Score)
	e.PutUint(tagWindows, h.Windows)
	e.PutInt(tagAt, h.At.UnixNano())
	e.PutNested(tagWindow, func(e *asn1lite.Encoder) { mobiflow.AppendTrace(e, h.Window) })
}

func (a *Analyzer) enqueueHuman(c *Case, reason string) {
	if a.store == nil {
		return
	}
	entry := humanQueueEntry{
		Reason:  reason,
		Model:   string(c.Alert.Model),
		Score:   c.Alert.Score,
		Windows: uint64(1 + c.Alert.Folded),
		Window:  c.Alert.Window,
		At:      c.ProcessedAt,
	}
	key := fmt.Sprintf("case/%s/%020d/%s", c.Alert.NodeID, c.Alert.Window[0].Seq, c.Alert.Model)
	a.store.Set(humanQueueNamespace, key, asn1lite.Marshal(&entry))
}

// HumanQueueLen reports pending human-review cases.
func (a *Analyzer) HumanQueueLen() int {
	if a.store == nil {
		return 0
	}
	return a.store.Len(humanQueueNamespace)
}

// HumanQueueAgedOut reports how many escalated cases left the queue
// unreviewed because HumanQueueBytes of newer ones arrived.
func (a *Analyzer) HumanQueueAgedOut() uint64 {
	if a.store == nil {
		return 0
	}
	return a.store.Evicted(humanQueueNamespace)
}

// RecommendControl maps an LLM classification to a closed-loop E2 control
// action (§5, Automated Network Responses). Identity-extraction attacks
// yield no automated action: they indicate a radio-side MiTM that RAN
// controls cannot remove, so the case is informational.
func RecommendControl(analysis *llm.Analysis, window mobiflow.Trace) *e2sm.ControlRequest {
	if analysis == nil || analysis.Verdict != llm.VerdictAnomalous {
		return nil
	}
	switch analysis.TopClass() {
	case llm.ClassBTSDoS:
		// Release the context with the most incomplete connection
		// attempts — not simply the last UE in the window, which can be
		// a benign bystander whose records trail the attacker's.
		if ue, ok := mostIncompleteUE(window); ok {
			return &e2sm.ControlRequest{
				Action: e2sm.ControlReleaseUE,
				UEID:   ue,
				Reason: "signaling storm: releasing fabricated connection",
			}
		}
	case llm.ClassBlindDoS:
		if tmsi, ok := dominantTMSI(window); ok {
			return &e2sm.ControlRequest{
				Action: e2sm.ControlBlockTMSI,
				TMSI:   tmsi,
				Reason: "blind DoS: blocking replayed temporary identity",
			}
		}
	case llm.ClassNullCipher:
		return &e2sm.ControlRequest{
			Action: e2sm.ControlRequireStrongSecurity,
			Reason: "null-security session detected: enforcing strong algorithms",
		}
	}
	return nil
}

// mostIncompleteUE picks the release target for a signaling storm: the
// UE context with the most incomplete connection-attempt records in the
// window. Setup and registration requests count as attempt evidence; a
// context that activates security within the window completed a normal
// attach and is never selected, so a benign bystander — even one whose
// records trail the attacker's — is not released. Ties go to the most
// recently seen offender, the closest context to the storm's front.
func mostIncompleteUE(window mobiflow.Trace) (uint64, bool) {
	attemptMsgs := map[string]bool{
		rrc.TypeSetupRequest.String():        true,
		nas.TypeRegistrationRequest.String(): true,
	}
	type tally struct {
		attempts int
		complete bool
		lastSeen int
	}
	byUE := make(map[uint64]*tally)
	for i, r := range window {
		tl := byUE[r.UEID]
		if tl == nil {
			tl = &tally{}
			byUE[r.UEID] = tl
		}
		tl.lastSeen = i
		if attemptMsgs[r.Msg] {
			tl.attempts++
		}
		if r.SecurityOn || r.RRCState == rrc.StateSecurityActivated || r.RRCState == rrc.StateReconfigured {
			tl.complete = true
		}
	}
	var best uint64
	bestAttempts, bestSeen := 0, -1
	for ue, tl := range byUE {
		if tl.complete {
			continue
		}
		if tl.attempts > bestAttempts || (tl.attempts == bestAttempts && tl.lastSeen > bestSeen) {
			best, bestAttempts, bestSeen = ue, tl.attempts, tl.lastSeen
		}
	}
	return best, bestAttempts > 0
}

func dominantTMSI(window mobiflow.Trace) (cell.TMSI, bool) {
	counts := make(map[cell.TMSI]int)
	for _, r := range window {
		if r.TMSI != cell.InvalidTMSI {
			counts[r.TMSI]++
		}
	}
	var best cell.TMSI
	bestN := 0
	for tmsi, n := range counts {
		if n > bestN || (n == bestN && tmsi < best) {
			best, bestN = tmsi, n
		}
	}
	return best, bestN > 0
}
