// LLM serving layer: the production-grade front-end between the
// analyzer xApp and the expert endpoint. A burst of anomalies — the
// alert flood a volumetric attack generates — must not turn the one
// REST-bound stage of the loop into a bottleneck or a single point of
// failure, so the Service wraps the raw Client with four mechanisms:
//
//   - a verdict cache keyed on the canonical prompt (windowKey) with TTL
//     and bounded LRU eviction, so windows showing the same traffic
//     pattern, from whichever UE, short-circuit the round trip entirely
//     and the prompt is not even built;
//   - single-flight request coalescing, so N concurrent identical
//     prompts issue one upstream call and share its answer;
//   - hedged retries: when the primary attempt is slow a second one is
//     launched after HedgeDelay and the first response wins, taming the
//     latency tail of a flaky endpoint;
//   - a token/latency budget governor: upstream concurrency is bounded,
//     admission waits are capped, and when the endpoint saturates the
//     request is shed to a rule-based degraded verdict produced locally
//     by the expert engine — every alert still gets a verdict. Governor
//     state transitions are journaled to the SDL and surface on
//     /healthz.
package llm

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// Serving-layer observability (the cache counters live in cache.go).
var (
	obsServed = obs.NewCounterVec("xsec_llm_served_total",
		"Analyses served, by source.", "source")
	obsServedLive      = obsServed.With(ServedLive)
	obsServedCache     = obsServed.With(ServedCache)
	obsServedCoalesced = obsServed.With(ServedCoalesced)
	obsServedDegraded  = obsServed.With(ServedDegraded)
	obsCoalesced       = obs.NewCounter("xsec_llm_coalesced_total",
		"Requests that joined an identical in-flight upstream call.")
	obsHedgeAttempts = obs.NewCounter("xsec_llm_hedge_attempts_total",
		"Hedge attempts launched against the expert endpoint.")
	obsHedgeWins = obs.NewCounter("xsec_llm_hedge_wins_total",
		"Requests answered by the hedge attempt instead of the primary.")
	obsShed = obs.NewCounter("xsec_llm_shed_total",
		"Requests shed to the rule-based degraded verdict.")
)

// DegradedModel names the local rule-based fallback in Analysis.Model
// and in provenance verdict events.
const DegradedModel = "rulebase-degraded"

// GovernorNamespace is the SDL namespace the budget governor journals
// its state transitions into.
const GovernorNamespace = "llm/governor"

// ServingOptions tunes the Service. The zero value means defaults.
type ServingOptions struct {
	// CacheSize bounds the verdict cache (default 4096 entries;
	// negative disables caching).
	CacheSize int
	// CacheTTL expires cached verdicts (default 5 min; negative means
	// no TTL). A hit means the expert was asked, less than a TTL ago,
	// about a window with the same canonical prompt: the same messages,
	// states and flags in the same order, with the same records sharing
	// identifiers, from any UE. A cached "benign" therefore covers every
	// UE showing that structure, for at most the TTL.
	CacheTTL time.Duration
	// MaxInflight bounds concurrent upstream REST calls (default 8).
	MaxInflight int
	// AdmitWait caps how long a request may wait for an upstream slot
	// before the governor sheds it (default 250 ms).
	AdmitWait time.Duration
	// HedgeDelay launches a second attempt when the primary has not
	// answered within this duration (default 500 ms; negative disables
	// hedging). The first response wins; the loser is canceled.
	HedgeDelay time.Duration
	// BreakerTrip is how many consecutive saturation events (admission
	// timeouts or failed exchanges) open the governor (default 4).
	// While open, requests shed immediately; one probe per
	// BreakerCooldown tests for recovery.
	BreakerTrip int
	// BreakerCooldown spaces recovery probes while open (default 2 s).
	BreakerCooldown time.Duration
	// Store, when non-nil, receives the governor's state-transition
	// journal in GovernorNamespace.
	Store *sdl.Store
	// Clock overrides time.Now for tests.
	Clock func() time.Time
}

func (o *ServingOptions) defaults() {
	if o.CacheSize == 0 {
		o.CacheSize = 4096
	}
	if o.CacheTTL == 0 {
		o.CacheTTL = 5 * time.Minute
	}
	if o.MaxInflight <= 0 {
		o.MaxInflight = 8
	}
	if o.AdmitWait <= 0 {
		o.AdmitWait = 250 * time.Millisecond
	}
	if o.HedgeDelay == 0 {
		o.HedgeDelay = 500 * time.Millisecond
	}
	if o.BreakerTrip <= 0 {
		o.BreakerTrip = 4
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 2 * time.Second
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
}

// ServingStats counts serving-layer activity for one Service instance
// (the obs counters aggregate process-wide).
type ServingStats struct {
	Live          atomic.Uint64 // fresh upstream answers
	CacheHits     atomic.Uint64 // verdict-cache short-circuits
	CacheMisses   atomic.Uint64 // analyses the cache did not answer
	Coalesced     atomic.Uint64 // joined an identical in-flight call
	Shed          atomic.Uint64 // degraded rule-based fallbacks
	HedgeAttempts atomic.Uint64 // second attempts launched
	HedgeWins     atomic.Uint64 // answered by the hedge
}

// flightCall is one in-flight upstream exchange followers wait on.
type flightCall struct {
	done     chan struct{}
	analysis *Analysis
	err      error
}

// Service is the serving layer around one Client. Safe for concurrent
// use by any number of analyzer workers.
type Service struct {
	client *Client
	opts   ServingOptions
	// secret keys the cache and single-flight maps (cacheKey): drawn once
	// per Service, so keys mean nothing outside it.
	secret [keySecretLen]byte
	cache  *verdictCache
	// parsed holds one parsed Analysis per distinct response text, so
	// patterns the expert answers in the same words retain the words once.
	parsed *verdictCache
	stats  ServingStats

	flightMu sync.Mutex
	flight   map[cacheKey]*flightCall

	sem chan struct{} // upstream admission slots

	satMu      sync.Mutex
	satStreak  int  // consecutive saturation events
	satOpen    bool // breaker open: shedding
	lastProbe  time.Time
	journalSeq uint64

	healthName string
}

// NewService wraps client with the serving layer.
func NewService(client *Client, opts ServingOptions) *Service {
	opts.defaults()
	s := &Service{
		client: client,
		opts:   opts,
		cache:  newVerdictCache(opts.CacheSize, opts.CacheTTL, opts.Clock),
		parsed: newVerdictCache(opts.CacheSize, opts.CacheTTL, opts.Clock),
		flight: make(map[cacheKey]*flightCall),
		sem:    make(chan struct{}, opts.MaxInflight),
	}
	if _, err := rand.Read(s.secret[:]); err != nil {
		// No entropy source: from go1.24 crypto/rand ends the process
		// itself. A Service keyed with a guessable secret must not serve.
		panic("llm: drawing the cache-key secret: " + err.Error())
	}
	obs.NewGaugeFunc("xsec_llm_cache_entries",
		"Verdicts currently held by the cache.", func() float64 { return float64(s.cache.len()) })
	obs.NewGaugeFunc("xsec_llm_inflight",
		"Upstream REST calls currently in flight.", func() float64 { return float64(len(s.sem)) })
	return s
}

// Client returns the wrapped client.
func (s *Service) Client() *Client { return s.client }

// Stats returns the per-instance counters.
func (s *Service) Stats() *ServingStats { return &s.stats }

// CacheLen reports live verdict-cache entries.
func (s *Service) CacheLen() int { return s.cache.len() }

// Saturated reports whether the governor is currently open (shedding).
func (s *Service) Saturated() bool {
	s.satMu.Lock()
	defer s.satMu.Unlock()
	return s.satOpen
}

// Models lists the models the endpoint hosts.
func (s *Service) Models(ctx context.Context) ([]string, error) {
	return s.client.Models(ctx)
}

// RegisterHealth joins /healthz under name: the check fails while the
// governor is open, with live detail either way.
func (s *Service) RegisterHealth(name string) {
	s.healthName = name
	obs.RegisterHealthDetail(name, func() (string, error) {
		detail := fmt.Sprintf("model=%s cache=%d hits=%d misses=%d inflight=%d/%d shed=%d hedges=%d",
			s.client.Model, s.cache.len(), s.stats.CacheHits.Load(), s.stats.CacheMisses.Load(),
			len(s.sem), cap(s.sem), s.stats.Shed.Load(), s.stats.HedgeAttempts.Load())
		if s.Saturated() {
			return detail, errors.New("expert endpoint saturated; shedding to rule-based verdicts")
		}
		return detail, nil
	})
}

// Close unregisters the health check. In-flight requests finish on
// their own contexts.
func (s *Service) Close() {
	if s.healthName != "" {
		obs.UnregisterHealth(s.healthName)
		s.healthName = ""
	}
}

// AnalyzeWindow answers for a telemetry window through the serving
// layer: cache, coalesce, hedge, or — when the endpoint saturates —
// degrade, in that order. Only the window's DATA lines are rendered to
// look it up; the prompt is built, and RAG-augmented, on a miss. The
// analysis returned may be shared with other callers and is not to be
// written.
func (s *Service) AnalyzeWindow(ctx context.Context, window mobiflow.Trace) (*Analysis, error) {
	if len(window) == 0 {
		return nil, fmt.Errorf("llm: empty window")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	key := s.windowKey(window)
	if a, ok := s.recall(key); ok {
		return a, nil
	}
	s.stats.CacheMisses.Add(1)
	obsCacheMisses.Inc()

	// Single flight: concurrent identical keys share one upstream
	// exchange.
	s.flightMu.Lock()
	if call, ok := s.flight[key]; ok {
		s.flightMu.Unlock()
		s.stats.Coalesced.Add(1)
		obsCoalesced.Inc()
		select {
		case <-call.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if call.err != nil {
			return nil, call.err
		}
		a := call.analysis.clone()
		if a.Served != ServedDegraded {
			a.Served = ServedCoalesced
		}
		obsServedCoalesced.Inc()
		return a, nil
	}
	call := &flightCall{done: make(chan struct{})}
	s.flight[key] = call
	s.flightMu.Unlock()

	a, err := s.resolve(ctx, key, s.client.renderPrompt(window))
	call.analysis, call.err = a, err
	s.flightMu.Lock()
	delete(s.flight, key)
	s.flightMu.Unlock()
	close(call.done)
	return a, err
}

// Recall answers for window only if the answer is in memory: the verdict
// cache's lookup and nothing else, so it never waits on the endpoint. A
// hit is an analysis served, counted and shared exactly as AnalyzeWindow's
// hit is (the caller does not ask AnalyzeWindow as well); a miss counts
// nothing, because the AnalyzeWindow that follows it counts the miss.
func (s *Service) Recall(window mobiflow.Trace) (*Analysis, bool) {
	if len(window) == 0 {
		return nil, false
	}
	return s.recall(s.windowKey(window))
}

// recall is the cache hit both entry points serve.
func (s *Service) recall(key cacheKey) (*Analysis, bool) {
	a, ok := s.cache.get(key)
	if ok {
		s.stats.CacheHits.Add(1)
		obsCacheHits.Inc()
		obsServedCache.Inc()
	}
	return a, ok
}

// resolve is the leader path: governor check, upstream exchange, cache
// fill, degraded fallback.
func (s *Service) resolve(ctx context.Context, key cacheKey, prompt string) (*Analysis, error) {
	if s.shedNow() {
		return s.degrade(prompt, "governor open")
	}
	a, err := s.upstream(ctx, prompt)
	if err == nil {
		s.recovered()
		s.stats.Live.Add(1)
		obsServedLive.Inc()
		a = s.shareText(a)
		hit := a.clone()
		hit.Served = ServedCache // what every hit is handed, as is
		s.cache.put(key, hit)
		return a, nil
	}
	// A canceled caller (analyzer shutdown) is not the endpoint's
	// fault; degrade so the alert still gets a verdict, but leave the
	// breaker alone.
	if ctx.Err() == nil {
		s.saturation(err)
	}
	return s.degrade(prompt, err.Error())
}

// shareText returns a over the parsed fields of an answer already held
// with the same response text, or holds a as that answer. The built-in
// expert answers a pattern in a few dozen distinct texts, ≈ 1.3 KB each
// parsed; a real endpoint never repeats one and pays a failed lookup.
func (s *Service) shareText(a *Analysis) *Analysis {
	tk := s.textKey(a.Raw)
	held, ok := s.parsed.get(tk)
	if !ok {
		s.parsed.put(tk, a)
		return a
	}
	cp := *held
	cp.Model, cp.PromptDigest, cp.Served = a.Model, a.PromptDigest, a.Served
	return &cp
}

// errAdmission marks a request the governor refused an upstream slot.
var errAdmission = errors.New("llm: upstream admission timed out")

// exchangeTimeout bounds one logical upstream exchange, hedges included.
const exchangeTimeout = 10 * time.Second

// upstream performs the bounded, hedged exchange. One admission slot
// covers the primary and its hedge; the prompt-token metric is charged
// once here regardless of how many attempts run.
func (s *Service) upstream(ctx context.Context, prompt string) (*Analysis, error) {
	admit := time.NewTimer(s.opts.AdmitWait)
	defer admit.Stop()
	select {
	case s.sem <- struct{}{}:
	case <-admit.C:
		return nil, errAdmission
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-s.sem }()

	CountPromptTokens(prompt)

	actx, cancel := context.WithTimeout(ctx, exchangeTimeout)
	defer cancel() // the losing attempt is aborted, not leaked

	type result struct {
		a     *Analysis
		err   error
		hedge bool
	}
	ch := make(chan result, 2)
	attempt := func(hedge bool) {
		a, err := s.client.do(actx, prompt)
		ch <- result{a, err, hedge}
	}
	go attempt(false)
	pending, hedged := 1, false
	launchHedge := func() {
		hedged = true
		pending++
		s.stats.HedgeAttempts.Add(1)
		obsHedgeAttempts.Inc()
		go attempt(true)
	}
	var hedgeTimer <-chan time.Time
	if s.opts.HedgeDelay > 0 {
		t := time.NewTimer(s.opts.HedgeDelay)
		defer t.Stop()
		hedgeTimer = t.C
	}
	var firstErr error
	for pending > 0 {
		select {
		case r := <-ch:
			pending--
			if r.err == nil {
				if r.hedge {
					s.stats.HedgeWins.Add(1)
					obsHedgeWins.Inc()
				}
				return r.a, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			// The primary failed before the hedge fired: spend the
			// hedge as an immediate retry.
			if !hedged && hedgeTimer != nil && pending == 0 && actx.Err() == nil {
				launchHedge()
			}
		case <-hedgeTimer:
			hedgeTimer = nil
			if !hedged {
				launchHedge()
			}
		}
	}
	return nil, firstErr
}

// degrade serves the rule-based fallback verdict.
func (s *Service) degrade(prompt, reason string) (*Analysis, error) {
	a, err := DegradedAnalysis(prompt)
	if err != nil {
		return nil, fmt.Errorf("llm: degraded fallback after %s: %w", reason, err)
	}
	s.stats.Shed.Add(1)
	obsShed.Inc()
	obsServedDegraded.Inc()
	return a, nil
}

// shedNow reports whether the governor is open, letting one probe
// through per cooldown to detect recovery.
func (s *Service) shedNow() bool {
	s.satMu.Lock()
	defer s.satMu.Unlock()
	if !s.satOpen {
		return false
	}
	now := s.opts.Clock()
	if now.Sub(s.lastProbe) >= s.opts.BreakerCooldown {
		s.lastProbe = now
		return false
	}
	return true
}

// saturation records one saturation event; enough in a row open the
// governor.
func (s *Service) saturation(cause error) {
	s.satMu.Lock()
	defer s.satMu.Unlock()
	s.satStreak++
	if !s.satOpen && s.satStreak >= s.opts.BreakerTrip {
		s.satOpen = true
		s.lastProbe = s.opts.Clock()
		s.journalLocked("saturated", cause.Error())
		obs.L().Warn("llm: expert endpoint saturated; shedding to rule-based verdicts",
			"model", s.client.Model, "cause", cause)
	}
}

// recovered closes the governor after a live success.
func (s *Service) recovered() {
	s.satMu.Lock()
	defer s.satMu.Unlock()
	if s.satOpen {
		s.satOpen = false
		s.journalLocked("ok", "upstream recovered")
		obs.L().Info("llm: expert endpoint recovered; live verdicts resumed",
			"model", s.client.Model)
	}
	s.satStreak = 0
}

// GovernorTransition is one journaled governor state change.
type GovernorTransition struct {
	Seq    uint64    `json:"seq"`
	At     time.Time `json:"at"`
	State  string    `json:"state"` // "ok" | "saturated"
	Reason string    `json:"reason"`
	Shed   uint64    `json:"shed_total"`
}

// journalLocked persists one transition (satMu held).
func (s *Service) journalLocked(state, reason string) {
	s.journalSeq++
	if s.opts.Store == nil {
		return
	}
	tr := GovernorTransition{
		Seq: s.journalSeq, At: s.opts.Clock(),
		State: state, Reason: reason, Shed: s.stats.Shed.Load(),
	}
	data, err := json.Marshal(tr)
	if err != nil {
		return
	}
	s.opts.Store.Set(GovernorNamespace, fmt.Sprintf("%06d", tr.Seq), data)
}

// GovernorJournal reads the journaled transitions, oldest first.
func GovernorJournal(store *sdl.Store) []GovernorTransition {
	keys := store.Keys(GovernorNamespace, "")
	sort.Strings(keys)
	out := make([]GovernorTransition, 0, len(keys))
	for _, k := range keys {
		data, _, ok := store.Get(GovernorNamespace, k)
		if !ok {
			continue
		}
		var tr GovernorTransition
		if json.Unmarshal(data, &tr) == nil {
			out = append(out, tr)
		}
	}
	return out
}

// DegradedAnalysis runs the local expert engine over a rendered prompt
// and builds the rule-based fallback verdict directly — no REST, no
// personality filter, confidence discounted so downstream consumers can
// tell it from a live expert opinion.
func DegradedAnalysis(prompt string) (*Analysis, error) {
	findings, err := AnalyzePrompt(prompt)
	if err != nil {
		return nil, err
	}
	a := &Analysis{
		Model:        DegradedModel,
		Served:       ServedDegraded,
		PromptDigest: prov.DigestText(prompt),
	}
	if len(findings) == 0 {
		a.Verdict = VerdictBenign
		a.Confidence = 0.6
		a.Explanation = "rule-based fallback: the telemetry matches no known attack pattern"
		a.Raw = "Verdict: BENIGN (degraded rule-based verdict; expert endpoint shed)"
		obsVerdicts.With(a.Verdict.String()).Inc()
		return a, nil
	}
	sort.SliceStable(findings, func(i, j int) bool {
		return classRank[findings[i].Class] < classRank[findings[j].Class]
	})
	top := findings[0]
	a.Verdict = VerdictAnomalous
	a.Confidence = 0.7
	if top.Subtle {
		a.Confidence = 0.55
	}
	a.Explanation = "rule-based fallback: " + top.Evidence
	a.Attribution = attribution(top.Class)
	a.Remediation = remediation(top.Class)
	for i, f := range findings {
		if i == 3 {
			break
		}
		a.Hypotheses = append(a.Hypotheses, Hypothesis{
			Class:        f.Class,
			Likelihood:   0.8 - 0.25*float64(i),
			Implications: implications(f.Class),
		})
	}
	a.Raw = fmt.Sprintf("Verdict: ANOMALOUS (degraded rule-based verdict; expert endpoint shed)\nClassification: %s", top.Class)
	obsVerdicts.With(a.Verdict.String()).Inc()
	return a, nil
}
