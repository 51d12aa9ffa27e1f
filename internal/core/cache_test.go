package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/analyzer"
	"github.com/6g-xsec/xsec/internal/llm"
	"github.com/6g-xsec/xsec/internal/mitigate"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/ue"
)

// counterValue reads one unlabelled counter of the process registry.
func counterValue(name string) float64 {
	for _, s := range obs.Default.Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	return 0
}

// TestRepeatedPatternFloodHitsTheCache floods the whole framework with the
// same two attacks from ever new UE contexts. The canonical prompt makes
// most of those windows one question, so most verdicts are cache hits —
// and a shared verdict must still act on the UE that showed the pattern:
// every case is bound to the prompt its own context renders to, and every
// acknowledged mitigation targets a UE or TMSI of its own case's window.
func TestRepeatedPatternFloodHitsTheCache(t *testing.T) {
	if testing.Short() {
		t.Skip("trains and floods the whole framework")
	}
	hits0, misses0 := counterValue("xsec_llm_cache_hits_total"), counterValue("xsec_llm_cache_misses_total")
	fw, _ := newDeployed(t, Options{
		Seed:         3,
		ReportPeriod: 5 * time.Millisecond,
		TrainOpts:    mobiwatch.TrainOptions{Epochs: 5, Seed: 7}, // a flood is blatant; training dominates under -race
		Mitigate:     "enforce",
		MitigateTTL:  200 * time.Millisecond,
	})
	var mu sync.Mutex
	byChain := make(map[string]*analyzer.Case)
	go func() {
		for c := range fw.Cases() {
			mu.Lock()
			byChain[prov.ChainID{Node: c.Alert.NodeID, SN: c.Alert.IndicationSN}.String()] = c
			mu.Unlock()
		}
	}()

	victim := fw.NewUE(ue.Pixel5, 500)
	vres, err := victim.RunSession(fw.GNB)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 8; round++ {
		flooder := fw.NewUE(ue.OAIUE, 501+2*round)
		flooder.Profile.RetransProb = 0
		flooder.Pace = func() { fw.Clock().Advance(500 * time.Microsecond) }
		if _, err := flooder.RunBTSDoS(fw.GNB, 40); err != nil {
			t.Fatal(err)
		}
		replayer := fw.NewUE(ue.OAIUE, 502+2*round)
		replayer.Pace = func() { fw.Clock().Advance(500 * time.Microsecond) }
		// The replay may be cut short by the mitigation itself.
		_, _ = replayer.RunBlindDoS(fw.GNB, vres.GUTI.TMSI, 6)
		time.Sleep(30 * time.Millisecond) // let the pool catch up: this test is about hits, not overload
	}
	waitAlertsConserved(t, fw)
	fw.Prov().Flush()

	hits := counterValue("xsec_llm_cache_hits_total") - hits0
	misses := counterValue("xsec_llm_cache_misses_total") - misses0
	if ratio := hits / (hits + misses); hits+misses == 0 || ratio <= 0.5 {
		t.Errorf("%v hits, %v misses: hit ratio %.2f on a repeated-pattern flood, want > 0.5", hits, misses, ratio)
	}

	mu.Lock()
	defer mu.Unlock()
	shared := make(map[*llm.Analysis]map[uint64]bool) // analysis → UEs it was served for
	for chain, c := range byChain {
		if c.Analysis == nil {
			t.Errorf("case %s has no analysis", chain)
			continue
		}
		// The audit binding: the verdict answers the prompt the case's own
		// context renders to, and the chain's verdict event says so.
		want := prov.DigestText(llm.RenderPrompt(c.Alert.Context))
		if c.Analysis.PromptDigest != want {
			t.Errorf("case %s (served %q): prompt digest %v, its context renders to %v",
				chain, c.Analysis.Served, c.Analysis.PromptDigest, want)
		}
		if c.Analysis.Served == llm.ServedCache {
			ues := shared[c.Analysis]
			if ues == nil {
				ues = make(map[uint64]bool)
				shared[c.Analysis] = ues
			}
			ues[c.Alert.Window[len(c.Alert.Window)-1].UEID] = true
		}
	}
	crossUE := false
	for _, ues := range shared {
		crossUE = crossUE || len(ues) > 1
	}
	if !crossUE {
		t.Error("no cached verdict was served to two UEs: hits came from exact repeats only")
	}

	acked := 0
	for _, en := range mitigate.Entries(fw.SDL) {
		if !en.Acked() {
			continue
		}
		acked++
		c := byChain[en.Chain]
		if c == nil {
			t.Errorf("acked mitigation %d has chain %q, which no delivered case has", en.ID, en.Chain)
			continue
		}
		own := map[string]bool{"node": true}
		for _, r := range c.Alert.Context {
			own[fmt.Sprintf("ue/%d", r.UEID)] = true
			own[fmt.Sprintf("tmsi/%d", r.TMSI)] = true
		}
		if !own[en.Target] {
			t.Errorf("acked mitigation %d (%s, verdict served %q) targets %s, which is not in its own case's window",
				en.ID, en.Action, c.Analysis.Served, en.Target)
		}
		id, err := prov.ParseChainID(en.Chain)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := prov.ReadChain(fw.SDL, id)
		if err != nil {
			t.Errorf("chain of acked mitigation %d: %v", en.ID, err)
			continue
		}
		for _, ev := range rec.Events {
			if ev.Kind == prov.KindVerdict && ev.Digest != c.Analysis.PromptDigest {
				t.Errorf("chain %s: verdict event digest %v, the case's analysis %v", en.Chain, ev.Digest, c.Analysis.PromptDigest)
			}
		}
	}
	if acked == 0 {
		t.Errorf("no acked mitigation (journal=%+v)", mitigate.Entries(fw.SDL))
	}
	t.Logf("%d cases, %v hits / %v misses, %d acked mitigations", len(byChain), hits, misses, acked)
}
