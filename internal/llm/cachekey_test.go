package llm

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/ue"
)

// TestCacheKeyStability pins the cache-key contract the serving layer
// depends on: within one Service identical windows key identically (that
// is the whole cache), for every model personality and with RAG on or off
// — while divergent windows, divergent models, and divergent RAG settings
// must not collide.
func TestCacheKeyStability(t *testing.T) {
	l := mixed(t)
	w1 := attackWindow(l, ue.AttackBTSDoS)
	w2 := attackWindow(l, ue.AttackBlindDoS)

	svc := NewService(NewClient("http://unused", ""), ServingOptions{})
	c := svc.Client()
	for _, m := range DefaultModels {
		for _, rag := range []bool{false, true} {
			c.Model, c.RAG = m.Name, rag
			if svc.windowKey(w1) != svc.windowKey(slices.Clone(w1)) {
				t.Errorf("%s rag=%v: identical windows produced different keys", m.Name, rag)
			}
			if svc.windowKey(w1) == svc.windowKey(w2) {
				t.Errorf("%s rag=%v: divergent windows collided", m.Name, rag)
			}
			// Rendering must be pure: repeated renders of the same window
			// cannot drift.
			if c.renderPrompt(w1) != c.renderPrompt(w1) {
				t.Errorf("%s rag=%v: prompt rendering is not deterministic", m.Name, rag)
			}
		}
	}

	// RAG augmentation changes the prompt, so it must change the key: a
	// RAG verdict answers a different question than a zero-shot one.
	c.Model, c.RAG = "chatgpt-4o", false
	zero := svc.windowKey(w1)
	c.RAG = true
	if zero == svc.windowKey(w1) {
		t.Error("RAG on/off collided on the same window")
	}

	// Same prompt, different personality: per Table 3 the verdicts
	// legitimately differ, so the keys must too.
	c.Model, c.RAG = "llama3", false
	if zero == svc.windowKey(w1) {
		t.Error("two model personalities collided on the same window")
	}
}

// TestPromptDigestMatchesServedAnalysis verifies a served analysis
// carries the digest of the exact prompt it answers, whichever serving
// path produced it — the binding xsec-audit chains rely on.
func TestPromptDigestMatchesServedAnalysis(t *testing.T) {
	l := mixed(t)
	srv, base := startServer(t)
	svc := NewService(NewClient(base, "chatgpt-4o"), ServingOptions{})
	defer svc.Close()

	window := attackWindow(l, ue.AttackUplinkIDExtraction)
	want := svc.Client().renderPrompt(window)
	live, err := svc.AnalyzeWindow(context.Background(), window)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := svc.AnalyzeWindow(context.Background(), window)
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := DegradedAnalysis(want)
	if err != nil {
		t.Fatal(err)
	}
	// The same window from another UE, twice at once, through a Service
	// that has not seen it: one leads, the other coalesces or hits.
	srv.Latency = 30 * time.Millisecond
	fresh := NewService(NewClient(base, "chatgpt-4o"), ServingOptions{})
	defer fresh.Close()
	var shared [2]*Analysis
	var wg sync.WaitGroup
	for i := range shared {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := fresh.AnalyzeWindow(context.Background(), fromUE(window, 7))
			if err != nil {
				t.Error(err)
			}
			shared[i] = a
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	wantDigest := prov.DigestText(want)
	for _, tc := range []struct {
		name string
		a    *Analysis
	}{{"live", live}, {"cached", cached}, {"degraded", degraded}, {shared[0].Served, shared[0]}, {shared[1].Served, shared[1]}} {
		if tc.a.PromptDigest != wantDigest {
			t.Errorf("%s: digest %v, want %v", tc.name, tc.a.PromptDigest, wantDigest)
		}
	}
}
