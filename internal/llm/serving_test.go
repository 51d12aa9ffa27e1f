package llm

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/sdl"
	"github.com/6g-xsec/xsec/internal/ue"
)

// fakeClock is a manually advanced clock for TTL and breaker tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
}

// startServer hosts the real expert service for serving-layer tests.
func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := NewServer()
	addr, shutdown, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown() })
	return srv, "http://" + addr
}

func TestServingCacheHit(t *testing.T) {
	l := mixed(t)
	srv, base := startServer(t)
	svc := NewService(NewClient(base, "chatgpt-4o"), ServingOptions{})
	defer svc.Close()

	window := attackWindow(l, ue.AttackBTSDoS)
	first, err := svc.AnalyzeWindow(context.Background(), window)
	if err != nil {
		t.Fatal(err)
	}
	if first.Served != ServedLive {
		t.Errorf("first served = %q, want live", first.Served)
	}
	second, err := svc.AnalyzeWindow(context.Background(), window)
	if err != nil {
		t.Fatal(err)
	}
	if second.Served != ServedCache {
		t.Errorf("second served = %q, want cache", second.Served)
	}
	if second.Verdict != first.Verdict || second.TopClass() != first.TopClass() {
		t.Error("cached analysis differs from live analysis")
	}
	if second.PromptDigest != first.PromptDigest {
		t.Error("cached analysis lost the prompt digest")
	}
	if got := srv.requests.Load(); got != 1 {
		t.Errorf("upstream requests = %d, want 1 (cache must short-circuit)", got)
	}
	if svc.stats.CacheHits.Load() != 1 || svc.stats.Live.Load() != 1 {
		t.Errorf("stats = live %d cache %d", svc.stats.Live.Load(), svc.stats.CacheHits.Load())
	}
	// A hit is the cache's own immutable analysis, Served already "cache":
	// serving it again copies nothing.
	third, _ := svc.AnalyzeWindow(context.Background(), window)
	if third != second {
		t.Error("two hits on one key were served two analyses")
	}
	if first.Served != ServedLive {
		t.Error("caching the live analysis rewrote how it says it was served")
	}
}

func TestServingCacheTTL(t *testing.T) {
	l := mixed(t)
	srv, base := startServer(t)
	clk := newFakeClock()
	svc := NewService(NewClient(base, "chatgpt-4o"), ServingOptions{clock: clk.Now})
	defer svc.Close()

	window := attackWindow(l, ue.AttackNullCipher)
	if _, err := svc.AnalyzeWindow(context.Background(), window); err != nil {
		t.Fatal(err)
	}
	clk.Advance(cacheTTL + time.Second)
	a, err := svc.AnalyzeWindow(context.Background(), window)
	if err != nil {
		t.Fatal(err)
	}
	if a.Served != ServedLive {
		t.Errorf("post-TTL served = %q, want live (entry must expire)", a.Served)
	}
	if got := srv.requests.Load(); got != 2 {
		t.Errorf("upstream requests = %d, want 2", got)
	}
}

func TestVerdictCacheLRU(t *testing.T) {
	vc := newVerdictCache(2, cacheTTL, time.Now)
	k1, k2, k3 := cacheKey{1}, cacheKey{2}, cacheKey{3}
	vc.put(k1, &Analysis{Explanation: "1"})
	vc.put(k2, &Analysis{Explanation: "2"})
	if _, ok := vc.get(k1); !ok { // touch k1: k2 becomes LRU
		t.Fatal("k1 missing before eviction")
	}
	vc.put(k3, &Analysis{Explanation: "3"})
	if _, ok := vc.get(k2); ok {
		t.Error("k2 survived, but it was the least recently used")
	}
	if _, ok := vc.get(k1); !ok {
		t.Error("k1 evicted despite being recently used")
	}
	if _, ok := vc.get(k3); !ok {
		t.Error("k3 missing")
	}
	if vc.len() != 2 {
		t.Errorf("len = %d, want 2", vc.len())
	}
}

func TestServingCoalesce(t *testing.T) {
	l := mixed(t)
	srv, base := startServer(t)
	srv.Latency = 50 * time.Millisecond // hold the flight open for followers
	svc := NewService(NewClient(base, "chatgpt-4o"), ServingOptions{})
	defer svc.Close()

	window := attackWindow(l, ue.AttackBlindDoS)
	const callers = 8
	results := make([]*Analysis, callers)
	var wg sync.WaitGroup
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer wg.Done()
			a, err := svc.AnalyzeWindow(context.Background(), window)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = a
		}(i)
	}
	wg.Wait()
	if got := srv.requests.Load(); got != 1 {
		t.Errorf("upstream requests = %d, want 1 (coalescing must share the flight)", got)
	}
	live, coalesced := 0, 0
	for _, a := range results {
		switch a.Served {
		case ServedLive:
			live++
		case ServedCoalesced, ServedCache:
			// A caller arriving after the flight resolves hits the cache
			// instead; both mean "no extra upstream call".
			coalesced++
		default:
			t.Errorf("unexpected served source %q", a.Served)
		}
		if a.Verdict != VerdictAnomalous {
			t.Errorf("verdict = %v", a.Verdict)
		}
	}
	if live != 1 || coalesced != callers-1 {
		t.Errorf("live = %d coalesced/cache = %d, want 1 and %d", live, coalesced, callers-1)
	}
}

func TestServingHedgeWins(t *testing.T) {
	l := mixed(t)
	// Custom endpoint: the first request hangs, later ones answer fast —
	// the shape of a straggling LLM backend the hedge exists for.
	const hang = 4 * hedgeDelay
	var reqs atomic.Uint64
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := reqs.Add(1)
		var req ChatRequest
		json.NewDecoder(r.Body).Decode(&req)
		findings, err := AnalyzePrompt(req.Prompt)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
			return
		}
		if n == 1 {
			select { // the canceled loser returns early
			case <-r.Context().Done():
				return
			case <-time.After(hang):
			}
		}
		writeJSON(w, http.StatusOK, ChatResponse{Model: req.Model, Text: ChatGPT4o.Respond(findings)})
	})
	ts := httptest.NewServer(handler)
	defer ts.Close()

	svc := NewService(NewClient(ts.URL, "chatgpt-4o"), ServingOptions{})
	defer svc.Close()

	start := time.Now()
	a, err := svc.AnalyzeWindow(context.Background(), attackWindow(l, ue.AttackBTSDoS))
	if err != nil {
		t.Fatal(err)
	}
	if a.Served != ServedLive {
		t.Errorf("served = %q", a.Served)
	}
	if elapsed := time.Since(start); elapsed >= hang {
		t.Errorf("hedge did not cut the tail: %v elapsed", elapsed)
	}
	if svc.stats.HedgeAttempts.Load() != 1 || svc.stats.HedgeWins.Load() != 1 {
		t.Errorf("hedge stats = attempts %d wins %d, want 1/1",
			svc.stats.HedgeAttempts.Load(), svc.stats.HedgeWins.Load())
	}
}

func TestServingDegradesOnFailure(t *testing.T) {
	l := mixed(t)
	// No server listening: every upstream attempt fails (the hedge is
	// spent as an immediate retry), yet the alert must still get a
	// verdict — the rule-based fallback.
	svc := NewService(NewClient("http://127.0.0.1:1", "chatgpt-4o"), ServingOptions{})
	defer svc.Close()

	a, err := svc.AnalyzeWindow(context.Background(), attackWindow(l, ue.AttackBTSDoS))
	if err != nil {
		t.Fatal(err)
	}
	if a.Served != ServedDegraded || a.Model != DegradedModel {
		t.Errorf("served = %q model = %q", a.Served, a.Model)
	}
	if a.Verdict != VerdictAnomalous || a.TopClass() != ClassBTSDoS {
		t.Errorf("degraded verdict = %v top = %v", a.Verdict, a.TopClass())
	}
	if a.PromptDigest == 0 {
		t.Error("degraded analysis lost the prompt digest; prov chains would break")
	}
	if svc.stats.Shed.Load() != 1 {
		t.Errorf("shed = %d", svc.stats.Shed.Load())
	}

	// Benign window: the fallback must not cry wolf.
	b, err := svc.AnalyzeWindow(context.Background(), benignWindow(l, 0, 12))
	if err != nil {
		t.Fatal(err)
	}
	if b.Verdict != VerdictBenign || b.Served != ServedDegraded {
		t.Errorf("benign degraded = %v/%q", b.Verdict, b.Served)
	}
}

func TestServingGovernorTripAndRecover(t *testing.T) {
	l := mixed(t)
	var failing atomic.Bool
	var hits atomic.Uint64
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if failing.Load() {
			writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "overloaded"})
			return
		}
		var req ChatRequest
		json.NewDecoder(r.Body).Decode(&req)
		findings, err := AnalyzePrompt(req.Prompt)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, ChatResponse{Model: req.Model, Text: ChatGPT4o.Respond(findings)})
	})
	ts := httptest.NewServer(handler)
	defer ts.Close()

	clk := newFakeClock()
	store := sdl.New()
	svc := NewService(NewClient(ts.URL, "chatgpt-4o"), ServingOptions{Store: store, clock: clk.Now})
	defer svc.Close()

	// A failed exchange is not cached, so one window asked again goes
	// upstream again.
	windows := []ue.AttackKind{ue.AttackBTSDoS, ue.AttackNullCipher}
	failing.Store(true)
	for i := 0; i < breakerTrip; i++ { // consecutive failures trip the breaker
		a, err := svc.AnalyzeWindow(context.Background(), attackWindow(l, windows[0]))
		if err != nil {
			t.Fatal(err)
		}
		if a.Served != ServedDegraded {
			t.Fatalf("failure %d served = %q", i, a.Served)
		}
	}
	if !svc.Saturated() {
		t.Fatal("governor did not open after breakerTrip consecutive failures")
	}

	// Open breaker, inside the cooldown: shed without touching upstream.
	before := hits.Load()
	a, err := svc.AnalyzeWindow(context.Background(), attackWindow(l, windows[1]))
	if err != nil {
		t.Fatal(err)
	}
	if a.Served != ServedDegraded {
		t.Errorf("open-breaker served = %q", a.Served)
	}
	if hits.Load() != before {
		t.Error("open breaker still sent a request upstream")
	}

	// Past the cooldown with a healthy upstream: the probe recovers.
	failing.Store(false)
	clk.Advance(breakerCooldown)
	a, err = svc.AnalyzeWindow(context.Background(), attackWindow(l, windows[1]))
	if err != nil {
		t.Fatal(err)
	}
	if a.Served != ServedLive {
		t.Errorf("probe served = %q, want live", a.Served)
	}
	if svc.Saturated() {
		t.Error("governor still open after a successful probe")
	}

	// The SDL journal recorded both transitions, in order.
	journal := governorJournal(store)
	if len(journal) != 2 {
		t.Fatalf("journal has %d transitions, want 2: %+v", len(journal), journal)
	}
	if journal[0].State != "saturated" || journal[1].State != "ok" {
		t.Errorf("journal states = %q, %q", journal[0].State, journal[1].State)
	}
	if journal[0].Seq >= journal[1].Seq {
		t.Error("journal sequence not monotonic")
	}
}

func TestServingHealthCheck(t *testing.T) {
	svc := NewService(NewClient("http://127.0.0.1:1", "chatgpt-4o"), ServingOptions{})
	const name = "llm-serving-test"
	svc.RegisterHealth(name)
	defer svc.Close()

	find := func() (obs.HealthStatus, bool) {
		for _, st := range obs.HealthSnapshot() {
			if st.Name == name {
				return st, true
			}
		}
		return obs.HealthStatus{}, false
	}
	st, ok := find()
	if !ok {
		t.Fatal("health check not registered")
	}
	if !st.OK {
		t.Errorf("healthy service reports not-OK: %+v", st)
	}

	// breakerTrip failures trip the breaker; /healthz must flip.
	l := mixed(t)
	for range breakerTrip {
		if _, err := svc.AnalyzeWindow(context.Background(), attackWindow(l, ue.AttackBTSDoS)); err != nil {
			t.Fatal(err)
		}
	}
	st, _ = find()
	if st.OK {
		t.Error("saturated service still reports OK")
	}
	if st.Detail == "" {
		t.Error("health detail empty")
	}

	svc.Close()
	if _, ok := find(); ok {
		t.Error("health check survived Close")
	}
}

// fromUE returns the episode w as another UE would show it: its own
// sequence numbers, RNTIs, TMSI and context ID.
func fromUE(w mobiflow.Trace, n int) mobiflow.Trace {
	out := slices.Clone(w)
	for i := range out {
		out[i].Seq += uint64(n) * 1000
		out[i].UEID += uint64(n) * 100
		out[i].RNTI += cell.RNTI(n) * 0x40
		if out[i].TMSI != cell.InvalidTMSI {
			out[i].TMSI += cell.TMSI(n)
		}
	}
	return out
}

// TestServingOnePatternFromManyUEs: the same BTS-DoS episode shown by 50
// UEs is one question. The expert is asked once (twice if the first two
// callers race the cache fill), every verdict is bound to the same prompt,
// and each caller's window still names its own UE.
func TestServingOnePatternFromManyUEs(t *testing.T) {
	l := mixed(t)
	srv, base := startServer(t)
	svc := NewService(NewClient(base, "chatgpt-4o"), ServingOptions{})
	defer svc.Close()

	episode := attackWindow(l, ue.AttackBTSDoS)
	const ues = 50
	windows := make([]mobiflow.Trace, ues)
	for n := range windows {
		windows[n] = fromUE(episode, n)
	}
	results := make([]*Analysis, ues)
	var wg sync.WaitGroup
	for worker := 0; worker < 4; worker++ { // the analyzer pool's width
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for n := worker; n < ues; n += 4 {
				a, err := svc.AnalyzeWindow(context.Background(), windows[n])
				if err != nil {
					t.Error(err)
					return
				}
				results[n] = a
			}
		}(worker)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := srv.requests.Load(); got > 2 {
		t.Errorf("%d upstream requests for one pattern from %d UEs, want at most 2", got, ues)
	}
	want := prov.DigestText(RenderPrompt(episode))
	for n, a := range results {
		if a.PromptDigest != want {
			t.Errorf("UE %d: prompt digest %v, want %v (the canonical prompt of the episode)", n, a.PromptDigest, want)
		}
		if a.Verdict != VerdictAnomalous || a.TopClass() != ClassBTSDoS {
			t.Errorf("UE %d: %v/%v", n, a.Verdict, a.TopClass())
		}
		if !slices.Equal(windows[n], fromUE(episode, n)) {
			t.Errorf("UE %d: its window no longer carries its own identifiers", n)
		}
	}
	st := &svc.stats
	if hits, misses := st.CacheHits.Load(), st.CacheMisses.Load(); hits+misses != ues || hits < ues-4 {
		t.Errorf("hits %d misses %d over %d analyses", hits, misses, ues)
	}
}

// TestServingHitsAllocateNothing: a hit costs a key and a lookup. No
// Analysis, prompt or key buffer is allocated for it, and what it returns
// is the cache's own value.
func TestServingHitsAllocateNothing(t *testing.T) {
	l := mixed(t)
	_, base := startServer(t)
	svc := NewService(NewClient(base, "chatgpt-4o"), ServingOptions{})
	defer svc.Close()

	w := attackWindow(l, ue.AttackBlindDoS)
	if len(w) > escalated {
		w = w[:escalated]
	}
	ctx := context.Background()
	first, err := svc.AnalyzeWindow(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	hit, _ := svc.AnalyzeWindow(ctx, w)
	if hit == first || hit.Served != ServedCache || first.Served != ServedLive {
		t.Fatalf("live %p served %q, hit %p served %q", first, first.Served, hit, hit.Served)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		a, err := svc.AnalyzeWindow(ctx, w)
		if err != nil || a != hit {
			t.Fatal("a hit was not served the cached analysis")
		}
	})
	if allocs != 0 {
		t.Errorf("a hit allocates %.1f times, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		if a, ok := svc.Recall(w); !ok || a != hit {
			t.Fatal("Recall did not serve the cached analysis")
		}
	})
	if allocs != 0 {
		t.Errorf("a recalled hit allocates %.1f times, want 0", allocs)
	}
}

// servingCounts reads every counter a served analysis moves: the
// Service's own and the process-wide series.
func servingCounts(svc *Service) [6]uint64 {
	st := &svc.stats
	return [6]uint64{
		st.CacheHits.Load(), st.CacheMisses.Load(), st.Live.Load(),
		obsCacheHits.Value(), obsCacheMisses.Value(), obsServedCache.Value(),
	}
}

// TestRecallIsTheHitAndNothingElse: Recall serves what AnalyzeWindow's hit
// serves and counts what it counts; a miss, an expired entry included,
// answers false, moves no counter and reaches no endpoint, so hits +
// misses stays the number of analyses served.
func TestRecallIsTheHitAndNothingElse(t *testing.T) {
	l := mixed(t)
	srv, base := startServer(t)
	clk := newFakeClock()
	svc := NewService(NewClient(base, "chatgpt-4o"), ServingOptions{clock: clk.Now})
	defer svc.Close()
	ctx := context.Background()
	w := attackWindow(l, ue.AttackNullCipher)

	before := servingCounts(svc)
	if a, ok := svc.Recall(w); ok || a != nil {
		t.Fatalf("Recall of a window never asked about = %v, %v", a, ok)
	}
	if a, ok := svc.Recall(nil); ok || a != nil {
		t.Fatalf("Recall of an empty window = %v, %v", a, ok)
	}
	if got := servingCounts(svc); got != before || srv.requests.Load() != 0 {
		t.Fatalf("a Recall miss moved counters %v -> %v, upstream requests %d", before, got, srv.requests.Load())
	}

	if _, err := svc.AnalyzeWindow(ctx, w); err != nil { // the miss, counted here
		t.Fatal(err)
	}
	hit, _ := svc.AnalyzeWindow(ctx, w)
	before = servingCounts(svc)
	a, ok := svc.Recall(w)
	if !ok || a != hit || a.Served != ServedCache {
		t.Fatalf("Recall = %p, %v; want the analysis a hit is served, %p", a, ok, hit)
	}
	want := before
	want[0]++ // CacheHits
	want[3]++ // xsec_llm_cache_hits_total
	want[5]++ // xsec_llm_served_total{source="cache"}
	if got := servingCounts(svc); got != want {
		t.Errorf("a Recall hit moved counters %v -> %v, want %v", before, got, want)
	}
	// Three analyses were served (live, hit, recalled hit) over one round trip.
	st := &svc.stats
	if served := st.CacheHits.Load() + st.CacheMisses.Load(); served != 3 || srv.requests.Load() != 1 {
		t.Errorf("hits %d + misses %d = %d analyses over %d requests, want 3 over 1",
			st.CacheHits.Load(), st.CacheMisses.Load(), served, srv.requests.Load())
	}

	clk.Advance(cacheTTL + time.Second)
	before = servingCounts(svc)
	if a, ok := svc.Recall(w); ok || a != nil {
		t.Errorf("Recall past the TTL = %v, %v; want a miss", a, ok)
	}
	if got := servingCounts(svc); got != before || srv.requests.Load() != 1 {
		t.Errorf("an expired Recall moved counters %v -> %v, upstream requests %d", before, got, srv.requests.Load())
	}
}

// TestServingSharesParsedAnswers: two patterns the expert answers in the
// same words hold those words once, and evicting one pattern's verdict
// leaves the other's served.
func TestServingSharesParsedAnswers(t *testing.T) {
	l := mixed(t)
	srv, base := startServer(t)
	svc := NewService(NewClient(base, "chatgpt-4o"), ServingOptions{})
	svc.cache = newVerdictCache(2, cacheTTL, time.Now) // evicts at the third pattern
	defer svc.Close()
	ctx := context.Background()

	w1 := attackWindow(l, ue.AttackNullCipher)
	w2 := slices.Clone(w1)
	w2[0].Retransmission = !w2[0].Retransmission // another pattern, the same finding
	a1, err := svc.AnalyzeWindow(ctx, w1)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := svc.AnalyzeWindow(ctx, w2)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Served != ServedLive || a2.Served != ServedLive || srv.requests.Load() != 2 {
		t.Fatalf("served %q and %q over %d requests, want two live answers", a1.Served, a2.Served, srv.requests.Load())
	}
	if a1.Raw != a2.Raw {
		t.Fatalf("the two patterns were answered differently:\n%s\n%s", a1.Raw, a2.Raw)
	}
	if unsafe.StringData(a1.Raw) != unsafe.StringData(a2.Raw) {
		t.Error("two live answers with one text hold the text twice")
	}
	if a1.PromptDigest == a2.PromptDigest {
		t.Error("two prompts, one digest: the shared answer carried its first prompt's binding along")
	}
	if a2.PromptDigest != prov.DigestText(RenderPrompt(w2)) {
		t.Error("the second answer is not bound to its own prompt")
	}

	// A third pattern evicts the first (two entries, w1 least recently
	// used); the second is still a hit, text and all.
	if _, err := svc.AnalyzeWindow(ctx, attackWindow(l, ue.AttackBTSDoS)); err != nil {
		t.Fatal(err)
	}
	h2, err := svc.AnalyzeWindow(ctx, w2)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Served != ServedCache || h2.Raw != a2.Raw || h2.PromptDigest != a2.PromptDigest {
		t.Errorf("after the eviction the second pattern is served %q", h2.Served)
	}
	r1, err := svc.AnalyzeWindow(ctx, w1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Served != ServedLive {
		t.Errorf("the evicted pattern is served %q, want live", r1.Served)
	}
}

// benchWindow is the window the serving benchmarks analyse: a flagged
// window with its context, as MobiWatch escalates it.
func benchWindow(b *testing.B) mobiflow.Trace {
	l, err := dataset.GenerateMixed(dataset.MixedConfig{
		BenignConfig:       dataset.BenignConfig{Fleet: 8, Seed: 17},
		InstancesPerAttack: 1,
		BenignBetween:      2,
	})
	if err != nil {
		b.Fatal(err)
	}
	return l.Trace[:escalated]
}

var benchSink int

// BenchmarkRenderPrompt times building the full canonical prompt, which
// the serving layer does on a miss only.
func BenchmarkRenderPrompt(b *testing.B) {
	w := benchWindow(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += len(RenderPrompt(w))
	}
}

// BenchmarkServiceHit times what every analysis pays: the canonical DATA
// lines, their keyed 128-bit key, and the cache lookup.
func BenchmarkServiceHit(b *testing.B) {
	w := benchWindow(b)
	svc := NewService(NewClient("http://unused", "chatgpt-4o"), ServingOptions{})
	svc.cache.put(svc.windowKey(w), &Analysis{Served: ServedCache})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.AnalyzeWindow(ctx, w); err != nil {
			b.Fatal(err)
		}
	}
}

// governorJournal reads the journaled transitions, oldest first.
func governorJournal(store *sdl.Store) []GovernorTransition {
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
