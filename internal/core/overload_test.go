package core

import (
	"sync"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/analyzer"
	"github.com/6g-xsec/xsec/internal/llm"
	"github.com/6g-xsec/xsec/internal/mitigate"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/ue"
)

// waitAlertsConserved waits for the alert path to go quiet (nothing
// queued, every taken alert analysed) and asserts that every flagged
// window is accounted for: offered = taken + folded + shed + queued.
func waitAlertsConserved(t *testing.T, fw *Framework) {
	t.Helper()
	st, an := fw.WatchStats(), fw.AnalyzerStats()
	var raised uint64
	deadline := time.Now().Add(5 * time.Second)
	for quiet := 0; quiet < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("alert path never went quiet: raised %d queued %d taken %d processed %d",
				st.AlertsRaised.Load(), st.AlertsQueued.Load(), st.AlertsTaken.Load(), an.Processed.Load())
		}
		time.Sleep(20 * time.Millisecond)
		if r := st.AlertsRaised.Load(); r == raised && st.AlertsQueued.Load() == 0 && st.AlertsTaken.Load() == an.Processed.Load() {
			quiet++
		} else {
			quiet, raised = 0, r
		}
	}
	offered := st.AlertsRaised.Load() + st.AlertsDropped.Load()
	accounted := st.AlertsTaken.Load() + st.AlertsFolded.Load() + st.AlertsShedPriority.Load() + st.AlertsShedStale.Load()
	if offered == 0 || offered != accounted {
		t.Errorf("%d alerts offered (%d raised, %d dropped) but %d accounted for: taken %d, folded %d, shed lower_priority %d, shed stale %d",
			offered, st.AlertsRaised.Load(), st.AlertsDropped.Load(), accounted,
			st.AlertsTaken.Load(), st.AlertsFolded.Load(), st.AlertsShedPriority.Load(), st.AlertsShedStale.Load())
	}
}

// TestOverloadDegradesByPolicy floods the loop with back-to-back BTS and
// blind DoS against a 20 ms expert, far more flagged windows than two
// round-trip workers can have analysed (two, not the default four: the
// pool's recall lane serves the flood's repeated patterns from memory, and
// what is left for four no longer overloads them on every run). The
// triage queue must keep every delivered case near real time, shed the
// excess by counted decision, and still end the flood in an acknowledged
// mitigation with a whole evidence chain behind it.
func TestOverloadDegradesByPolicy(t *testing.T) {
	const expertRTT = 20 * time.Millisecond
	expert := llm.NewServer()
	expert.Latency = expertRTT
	addr, shutdown, err := expert.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	fw, err := New(Options{
		Seed:         3,
		ReportPeriod: 5 * time.Millisecond,
		TrainOpts:    mobiwatch.TrainOptions{Epochs: 5, Seed: 7}, // a flood is blatant; training dominates under -race
		LLMBaseURL:   "http://" + addr,
		LLMWorkers:   2,
		Mitigate:     "enforce",
		MitigateTTL:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fw.Close)
	benign, err := fw.CollectBenign(40)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Train(benign); err != nil {
		t.Fatal(err)
	}
	if err := fw.DeployXApps(); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var cases []*analyzer.Case
	go func() {
		for c := range fw.Cases() {
			mu.Lock()
			cases = append(cases, c)
			mu.Unlock()
		}
	}()

	victim := fw.NewUE(ue.Pixel5, 400)
	vres, err := victim.RunSession(fw.GNB)
	if err != nil {
		t.Fatal(err)
	}
	// Each BTS DoS connection is a fresh UE context, so the flood is
	// hundreds of distinct episodes, not one: more than the queue holds.
	for round := 0; round < 6; round++ {
		flooder := fw.NewUE(ue.OAIUE, 401+2*round)
		flooder.Profile.RetransProb = 0
		flooder.Pace = func() { fw.Clock().Advance(500 * time.Microsecond) }
		if _, err := flooder.RunBTSDoS(fw.GNB, 60); err != nil {
			t.Fatal(err)
		}
		replayer := fw.NewUE(ue.OAIUE, 402+2*round)
		replayer.Pace = func() { fw.Clock().Advance(500 * time.Microsecond) }
		// The replay may be cut short by the mitigation itself.
		_, _ = replayer.RunBlindDoS(fw.GNB, vres.GUTI.TMSI, 6)
	}

	// The flood ends in an acked mitigation …
	var acked mitigate.Entry
	deadline := time.Now().Add(8 * time.Second)
	for acked.ID == 0 {
		for _, en := range mitigate.Entries(fw.SDL) {
			if en.Acked() {
				acked = en
				break
			}
		}
		if acked.ID == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("no acked mitigation (journal=%+v)", mitigate.Entries(fw.SDL))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitAlertsConserved(t, fw)

	// … whose evidence chain is whole, emit to mitigation.
	fw.Prov().Flush()
	id, err := prov.ParseChainID(acked.Chain)
	if err != nil {
		t.Fatalf("acked mitigation %d has chain %q: %v", acked.ID, acked.Chain, err)
	}
	rec, err := prov.ReadChain(fw.SDL, id)
	if err != nil {
		t.Fatalf("chain %s of acked mitigation %d: %v", id, acked.ID, err)
	}
	if missing := rec.MissingStages(); len(missing) > 0 {
		t.Errorf("chain %s of acked mitigation %d lacks stages %v", id, acked.ID, missing)
	}

	// A verdict served degraded is whole evidence too. With the expert
	// gone, a flood whose retransmissions make its windows ones the
	// verdict cache has not seen gets the rule-based verdict, and that
	// case's chain still reads emit to mitigation.
	shutdown()
	orphan := fw.NewUE(ue.OAIUE, 499)
	orphan.Profile.RetransProb = 0.5
	orphan.Pace = func() { fw.Clock().Advance(500 * time.Microsecond) }
	_, _ = orphan.RunBTSDoS(fw.GNB, 20) // may be cut short by the mitigation
	var degraded *analyzer.Case
	deadline = time.Now().Add(8 * time.Second)
	for degraded == nil {
		mu.Lock()
		for _, c := range cases {
			if c.Analysis != nil && c.Analysis.Served == llm.ServedDegraded && c.Control != nil {
				degraded = c
				break
			}
		}
		mu.Unlock()
		if degraded == nil {
			if time.Now().After(deadline) {
				t.Fatalf("no case served degraded after the expert went away (analyzer degraded=%d failures=%d)",
					fw.AnalyzerStats().Degraded.Load(), fw.AnalyzerStats().Failures.Load())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitAlertsConserved(t, fw)
	fw.Prov().Flush()
	id = prov.ChainID{Node: degraded.Alert.NodeID, SN: degraded.Alert.IndicationSN}
	if rec, err = prov.ReadChain(fw.SDL, id); err != nil {
		t.Fatalf("chain %s of the degraded case: %v", id, err)
	}
	if missing := rec.MissingStages(); len(missing) > 0 {
		t.Errorf("chain %s, verdict served degraded, lacks stages %v", id, missing)
	}

	// Overload was shed by decision, not by arrival order.
	st := fw.WatchStats()
	shed := st.AlertsShedPriority.Load() + st.AlertsShedStale.Load()
	if shed == 0 {
		t.Errorf("nothing shed: the flood (%d flagged windows, %d taken) did not overload the pool",
			st.AlertsRaised.Load(), st.AlertsTaken.Load())
	}
	if st.AlertsFolded.Load() == 0 {
		t.Error("nothing folded: a flood's windows each took a slot")
	}

	// What was delivered is near real time: no case waited longer than
	// the staleness bound for its worker.
	mu.Lock()
	defer mu.Unlock()
	if len(cases) == 0 {
		t.Fatal("no cases delivered")
	}
	var worst time.Duration
	for _, c := range cases {
		worst = max(worst, c.ProcessedAt.Sub(c.Alert.At))
	}
	if bound := mobiwatch.AlertStaleAfter + expertRTT; worst > bound {
		t.Errorf("a case waited %v between flag and analysis, bound %v", worst, bound)
	}
	if got := uint64(len(cases)) + fw.casesDropped.Load(); got != st.AlertsTaken.Load() {
		t.Errorf("%d alerts taken but %d cases delivered or counted dropped", st.AlertsTaken.Load(), got)
	}
	t.Logf("flagged %d: taken %d, folded %d, shed lower_priority %d, shed stale %d; worst queue wait %v",
		st.AlertsRaised.Load()+st.AlertsDropped.Load(), st.AlertsTaken.Load(), st.AlertsFolded.Load(),
		st.AlertsShedPriority.Load(), st.AlertsShedStale.Load(), worst)
}
