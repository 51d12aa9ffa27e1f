package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/analyzer"
	"github.com/6g-xsec/xsec/internal/llm"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/ue"
)

// TestHitsDoNotWaitBehindRoundTrips floods the framework with repeated
// patterns against a 50 ms expert, so the misses keep every round-trip
// worker inside the expert most of the time. A verdict the serving layer
// has in memory must not queue for one of them: the cases served from the
// cache that were flagged while every worker was in a round trip start
// within milliseconds of the flag, each still bound to the prompt its own
// context renders to, with every flagged window accounted for.
func TestHitsDoNotWaitBehindRoundTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("trains and floods the whole framework")
	}
	const (
		expertRTT = 50 * time.Millisecond
		workers   = 1 // one round trip at a time: a miss parks the whole pool
	)
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
		LLMWorkers:   workers,
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

	victim := fw.NewUE(ue.Pixel5, 600)
	vres, err := victim.RunSession(fw.GNB)
	if err != nil {
		t.Fatal(err)
	}
	// Paced on the wall clock too: a sustained flood, in which a pattern's
	// answer lands while the pattern is still arriving, not one burst.
	pace := func() {
		fw.Clock().Advance(500 * time.Microsecond)
		time.Sleep(200 * time.Microsecond)
	}
	for round := 0; round < 8; round++ {
		flooder := fw.NewUE(ue.OAIUE, 601+2*round)
		flooder.Profile.RetransProb = 0
		flooder.Pace = pace
		if _, err := flooder.RunBTSDoS(fw.GNB, 40); err != nil {
			t.Fatal(err)
		}
		replayer := fw.NewUE(ue.OAIUE, 602+2*round)
		replayer.Pace = pace
		if _, err := replayer.RunBlindDoS(fw.GNB, vres.GUTI.TMSI, 6); err != nil {
			t.Fatal(err)
		}
	}
	waitAlertsConserved(t, fw)

	mu.Lock()
	defer mu.Unlock()
	// A live case's round trip runs from ProcessedAt (Process stamps it
	// before it asks) for at least the expert's latency.
	var trips []time.Time
	for _, c := range cases {
		if c.Analysis != nil && c.Analysis.Served == llm.ServedLive {
			trips = append(trips, c.ProcessedAt)
		}
	}
	var waits []time.Duration // of hits flagged with every worker in a round trip
	for _, c := range cases {
		if c.Analysis == nil {
			t.Errorf("case of indication %d has no analysis", c.Alert.IndicationSN)
			continue
		}
		if want := prov.DigestText(llm.RenderPrompt(c.Alert.Context)); c.Analysis.PromptDigest != want {
			t.Errorf("case of indication %d (served %q): prompt digest %v, its context renders to %v",
				c.Alert.IndicationSN, c.Analysis.Served, c.Analysis.PromptDigest, want)
		}
		if c.Analysis.Served != llm.ServedCache {
			continue
		}
		busy := 0
		for _, began := range trips {
			if !began.After(c.Alert.At) && c.Alert.At.Before(began.Add(expertRTT)) {
				busy++
			}
		}
		if busy >= workers {
			waits = append(waits, c.ProcessedAt.Sub(c.Alert.At))
		}
	}
	st := fw.WatchStats()
	if len(waits) < 10 || st.AlertsRecalled.Load() == 0 {
		t.Fatalf("scenario exercised nothing: %d of %d cases (%d round trips) were hits flagged with all %d workers in a round trip, %d taken by the lane",
			len(waits), len(cases), len(trips), workers, st.AlertsRecalled.Load())
	}
	slices.Sort(waits)
	if median := waits[len(waits)/2]; median >= 5*time.Millisecond {
		t.Errorf("hits flagged while every worker was in a %v round trip waited %v at the median (max %v, %d samples), want < 5 ms",
			expertRTT, median, waits[len(waits)-1], len(waits))
	}
	t.Logf("%d cases over %d round trips; %d hits flagged with every worker busy waited %v at the median, %v at most; %d of %d takes by the lane",
		len(cases), len(trips), len(waits), waits[len(waits)/2], waits[len(waits)-1], st.AlertsRecalled.Load(), st.AlertsTaken.Load())
}
