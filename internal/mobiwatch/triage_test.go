package mobiwatch

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/prov"
)

// testClock is the queue's injected clock.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestQueue() (*alertQueue, *Stats, *testClock) {
	clock := &testClock{t: time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)}
	stats := &Stats{}
	return newAlertQueue(stats, obsQueueDepth.With("gnb-triage-test"), clock.now), stats, clock
}

// flagged is a one-record flagged window of UE ue scoring ratio times its
// threshold, completed by indication sn.
func flagged(ue uint64, ratio float64, sn uint64) Alert {
	w := mobiflow.Trace{{Seq: sn, UEID: ue, Msg: "RRCSetupRequest"}}
	return Alert{NodeID: "gnb-triage-test", Window: w, Context: w, Score: ratio * 0.5, Threshold: 0.5, Model: ModelAE, IndicationSN: sn}
}

// takeNow takes without waiting: ok is false when nothing is due a worker.
func takeNow(q *alertQueue) (Alert, Ticket, bool) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return q.Take(ctx, nil)
}

// accounted checks the conservation identity and returns what was offered.
func accounted(t *testing.T, st *Stats) uint64 {
	t.Helper()
	in := st.AlertsRaised.Load() + st.AlertsDropped.Load()
	out := st.AlertsTaken.Load() + st.AlertsFolded.Load() + st.AlertsShedPriority.Load() +
		st.AlertsShedStale.Load() + uint64(st.AlertsQueued.Load())
	if in != out {
		t.Errorf("%d alerts offered (%d raised + %d dropped), %d accounted for (taken %d, folded %d, shed lower_priority %d, shed stale %d, queued %d)",
			in, st.AlertsRaised.Load(), st.AlertsDropped.Load(), out, st.AlertsTaken.Load(), st.AlertsFolded.Load(),
			st.AlertsShedPriority.Load(), st.AlertsShedStale.Load(), st.AlertsQueued.Load())
	}
	return in
}

// TestTriageTakeOrder: a free worker gets the first analysis of an
// episode before a repeat, then the strongest window, then the newest.
func TestTriageTakeOrder(t *testing.T) {
	type step struct {
		offer   *Alert // offered 1 ms after the previous step
		take    uint64 // or: take, expecting this indication SN
		resolve uint64 // or: resolve the take of this SN as disagreed
	}
	offer := func(ue uint64, ratio float64, sn uint64) step {
		a := flagged(ue, ratio, sn)
		return step{offer: &a}
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"strongest window first", []step{
			offer(1, 1.5, 11), offer(2, 3.0, 12), offer(3, 2.0, 13),
			{take: 12}, {take: 13}, {take: 11},
		}},
		{"newest on ties", []step{
			offer(1, 2.0, 11), offer(2, 2.0, 12), offer(3, 2.0, 13),
			{take: 13}, {take: 12}, {take: 11},
		}},
		{"first analysis before a repeat, however strong", []step{
			offer(1, 2.0, 11), {take: 11},
			offer(1, 9.0, 12),  // held behind the analysis of UE 1
			{resolve: 11},      // disagreed: SN 12 is due, as a repeat
			offer(2, 1.1, 13),  // a weak first analysis
			offer(3, 1.05, 14), // and a weaker one
			{take: 13}, {take: 14}, {take: 12},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, st, clock := newTestQueue()
			tickets := map[uint64]Ticket{}
			for i, s := range tc.steps {
				clock.advance(time.Millisecond)
				switch {
				case s.offer != nil:
					q.offer(*s.offer)
				case s.take != 0:
					a, tk, ok := takeNow(q)
					if !ok || a.IndicationSN != s.take {
						t.Fatalf("step %d: took SN %d (ok=%v), want SN %d", i, a.IndicationSN, ok, s.take)
					}
					tickets[a.IndicationSN] = tk
				default:
					q.Resolve(tickets[s.resolve], false)
				}
			}
			accounted(t, st)
		})
	}
}

// TestTriageFoldKeepsStrongestAndCount: a flood on one UE is one alert
// carrying a count and its strongest window, and every disposition lands
// on the chain of the window it happened to.
func TestTriageFoldKeepsStrongestAndCount(t *testing.T) {
	ledger := prov.New(prov.Options{})
	defer prov.SetActive(prov.SetActive(ledger))
	q, st, _ := newTestQueue()
	labels := []string{
		q.offer(flagged(1, 2.0, 11)), // takes the slot
		q.offer(flagged(1, 3.0, 12)), // stronger: stands for the episode, 11 folds
		q.offer(flagged(1, 1.5, 13)), // weaker: folds
		q.offer(flagged(1, 3.0, 14)), // no stronger than the kept one: folds
	}
	if want := []string{labelRaised, labelRaised, labelFolded, labelFolded}; !slices.Equal(labels, want) {
		t.Errorf("dispositions = %v, want %v", labels, want)
	}
	if n := st.AlertsQueued.Load(); n != 1 {
		t.Fatalf("%d alerts queued for one episode, want 1", n)
	}
	a, _, ok := takeNow(q)
	if !ok || a.IndicationSN != 12 || a.Score != 1.5 || a.Folded != 3 {
		t.Fatalf("took SN %d score %g folded %d (ok=%v); want SN 12, score 1.5, folded 3", a.IndicationSN, a.Score, a.Folded, ok)
	}
	if st.AlertsFolded.Load() != 3 || st.AlertsRaised.Load() != 4 || st.AlertsDropped.Load() != 0 {
		t.Errorf("folded %d raised %d dropped %d; want 3, 4, 0", st.AlertsFolded.Load(), st.AlertsRaised.Load(), st.AlertsDropped.Load())
	}
	accounted(t, st)

	// The queue copies what it keeps: the caller's slices are borrowed.
	borrowed := flagged(2, 2.0, 21)
	q.offer(borrowed)
	borrowed.Window[0].UEID = 99
	if kept, _, _ := takeNow(q); kept.Window[0].UEID != 2 || kept.Context[0].UEID != 2 {
		t.Error("a kept alert aliases the offerer's window")
	}

	// SN 11 was kept, then folded when SN 12 outranked it; raise itself
	// records the event for an alert that folds at offer.
	ledger.Close()
	rec, ok := ledger.Chain(prov.ChainID{Node: "gnb-triage-test", SN: 11})
	if !ok || len(rec.Events) != 1 || rec.Events[0].Kind != prov.KindAlert || rec.Events[0].Label != labelFolded {
		t.Errorf("chain of the outranked alert = %+v, want one alert event labelled %q", rec.Events, labelFolded)
	}
}

// TestTriageKeptAlertHoldsItsRecordsOnce: raise offers a window that is the
// tail of its context, both viewing the worker's history; the queue keeps
// one copy of the context and the window inside it, and the worker's
// history moving on changes neither.
func TestTriageKeptAlertHoldsItsRecordsOnce(t *testing.T) {
	q, _, _ := newTestQueue()
	history := make(mobiflow.Trace, 12)
	for i := range history {
		history[i] = mobiflow.Record{Seq: uint64(100 + i), UEID: 7, Msg: "RRCSetupRequest"}
	}
	a := flagged(7, 2.0, 31)
	a.Context, a.Window = history[2:12], history[8:12]
	q.offer(a)
	for i := range history {
		history[i].Seq = 0 // the worker trims and reuses its history
	}
	kept, _, ok := takeNow(q)
	if !ok || len(kept.Context) != 10 || len(kept.Window) != 4 {
		t.Fatalf("took context %d window %d (ok=%v), want 10 and 4", len(kept.Context), len(kept.Window), ok)
	}
	if &kept.Window[0] != &kept.Context[len(kept.Context)-len(kept.Window)] {
		t.Error("a kept alert holds its window apart from its context")
	}
	if kept.Context.FirstSeq() != 102 || kept.Window.FirstSeq() != 108 || kept.Window.LastSeq() != 111 {
		t.Errorf("kept context starts #%d, window #%d..#%d; want #102, #108..#111",
			kept.Context.FirstSeq(), kept.Window.FirstSeq(), kept.Window.LastSeq())
	}
}

// TestTriageFullQueueShedsLowestPriority: at capacity the entry every
// other outranks goes, a repeat before any first analysis, and an arrival
// that outranks nothing is refused (the one case Stats calls dropped).
func TestTriageFullQueueShedsLowestPriority(t *testing.T) {
	ledger := prov.New(prov.Options{})
	defer prov.SetActive(prov.SetActive(ledger))
	q, st, _ := newTestQueue()

	// One repeat, far stronger than anything else in the queue.
	q.offer(flagged(1000, 2.0, 1))
	_, tk, _ := takeNow(q)
	q.offer(flagged(1000, 50.0, 2))
	q.Resolve(tk, false)
	// Fill up with first analyses of ratio 2.00 … 2.62.
	for i := 0; i < alertBuffer-1; i++ {
		q.offer(flagged(uint64(i+1), 2+float64(i)/100, uint64(100+i)))
	}
	if n := st.AlertsQueued.Load(); n != alertBuffer {
		t.Fatalf("queued = %d, want %d", n, alertBuffer)
	}

	// A first analysis weaker than every other still displaces the repeat.
	if l := q.offer(flagged(2000, 1.01, 200)); l != labelRaised {
		t.Errorf("weak first analysis against a queued repeat: %q, want %q", l, labelRaised)
	}
	if st.AlertsShedPriority.Load() != 1 || st.AlertsDropped.Load() != 0 {
		t.Fatalf("shed lower_priority %d dropped %d; want 1 and 0", st.AlertsShedPriority.Load(), st.AlertsDropped.Load())
	}
	// No repeat left: an arrival that outranks nothing is refused …
	if l := q.offer(flagged(2001, 1.001, 201)); l != labelShedPriority {
		t.Errorf("weakest arrival at a full queue: %q, want %q", l, labelShedPriority)
	}
	if st.AlertsShedPriority.Load() != 2 || st.AlertsDropped.Load() != 1 {
		t.Errorf("shed lower_priority %d dropped %d; want 2 and 1", st.AlertsShedPriority.Load(), st.AlertsDropped.Load())
	}
	// … and one that outranks something evicts the weakest, SN 200.
	if l := q.offer(flagged(2002, 10.0, 202)); l != labelRaised {
		t.Errorf("strong arrival at a full queue: %q, want %q", l, labelRaised)
	}
	if n := st.AlertsQueued.Load(); n != alertBuffer {
		t.Errorf("queued = %d after evictions, want %d", n, alertBuffer)
	}
	accounted(t, st)

	taken := map[uint64]bool{}
	for {
		a, _, ok := takeNow(q)
		if !ok {
			break
		}
		taken[a.IndicationSN] = true
	}
	if len(taken) != alertBuffer || taken[2] || taken[200] || taken[201] || !taken[202] || !taken[100] {
		t.Errorf("survivors wrong: %d taken, repeat SN2=%v weak SN200=%v refused SN201=%v strong SN202=%v",
			len(taken), taken[2], taken[200], taken[201], taken[202])
	}

	ledger.Close()
	for _, sn := range []uint64{2, 200} {
		rec, _ := ledger.Chain(prov.ChainID{Node: "gnb-triage-test", SN: sn})
		if len(rec.Events) != 1 || rec.Events[0].Label != labelShedPriority {
			t.Errorf("chain of evicted SN %d = %+v, want one alert event labelled %q", sn, rec.Events, labelShedPriority)
		}
	}
}

// TestTriageShedsStale: an alert nobody took within AlertStaleAfter is
// shed, counted and recorded, and its episode forgotten.
func TestTriageShedsStale(t *testing.T) {
	ledger := prov.New(prov.Options{})
	defer prov.SetActive(prov.SetActive(ledger))
	q, st, clock := newTestQueue()
	q.offer(flagged(1, 2.0, 11))
	clock.advance(AlertStaleAfter)
	q.offer(flagged(2, 2.0, 12)) // SN 11 is exactly at the bound: kept
	if st.AlertsShedStale.Load() != 0 {
		t.Fatal("alert shed at, not past, the staleness bound")
	}
	clock.advance(time.Millisecond)
	a, _, ok := takeNow(q)
	if !ok || a.IndicationSN != 12 {
		t.Fatalf("took SN %d (ok=%v), want the fresh SN 12", a.IndicationSN, ok)
	}
	if st.AlertsShedStale.Load() != 1 || len(q.table) != 1 {
		t.Errorf("shed stale %d, table %d; want 1 and 1 (the in-flight episode)", st.AlertsShedStale.Load(), len(q.table))
	}
	accounted(t, st)
	ledger.Close()
	rec, _ := ledger.Chain(prov.ChainID{Node: "gnb-triage-test", SN: 11})
	if len(rec.Events) != 1 || rec.Events[0].Label != labelShedStale {
		t.Errorf("chain of the stale alert = %+v, want one alert event labelled %q", rec.Events, labelShedStale)
	}
}

// TestTriageSingleFlightAndVerdicts: an in-flight key is never handed to
// a second worker; a disagreed episode is re-queued with the strongest
// window seen meanwhile; an agreed one folds for contextSpan, then re-arms.
func TestTriageSingleFlightAndVerdicts(t *testing.T) {
	q, st, clock := newTestQueue()
	q.offer(flagged(1, 2.0, 11))
	_, first, ok := takeNow(q)
	if !ok {
		t.Fatal("nothing to take")
	}
	q.offer(flagged(1, 2.5, 12))
	q.offer(flagged(1, 5.0, 13))
	q.offer(flagged(1, 3.0, 14))
	if _, _, ok := takeNow(q); ok {
		t.Fatal("an in-flight episode was handed to a second worker")
	}
	if n := st.AlertsQueued.Load(); n != 1 {
		t.Errorf("%d alerts held behind the analysis, want 1", n)
	}

	q.Resolve(first, false)
	again, second, ok := takeNow(q)
	if !ok || again.IndicationSN != 13 || again.Folded != 2 {
		t.Fatalf("after a disagreement took SN %d folded %d (ok=%v); want the strongest, SN 13, folded 2", again.IndicationSN, again.Folded, ok)
	}

	// Agreed, with an alert that arrived during the analysis: it folds.
	q.offer(flagged(1, 4.0, 15))
	q.Resolve(second, true)
	if _, _, ok := takeNow(q); ok {
		t.Error("an alert behind an agreed verdict was handed out")
	}
	folded := st.AlertsFolded.Load()
	clock.advance(contextSpan - time.Millisecond)
	if l := q.offer(flagged(1, 9.0, 16)); l != labelFolded {
		t.Errorf("inside the fold horizon: %q, want %q", l, labelFolded)
	}
	if got := st.AlertsFolded.Load(); got != folded+1 {
		t.Errorf("folded = %d, want %d", got, folded+1)
	}
	clock.advance(time.Millisecond)
	if l := q.offer(flagged(1, 1.2, 17)); l != labelRaised {
		t.Errorf("past the fold horizon: %q, want %q", l, labelRaised)
	}
	rearmed, third, ok := takeNow(q)
	if !ok || rearmed.IndicationSN != 17 || third.ep.repeat {
		t.Errorf("re-armed episode: took SN %d (ok=%v, repeat=%v); want SN 17 as a first analysis", rearmed.IndicationSN, ok, third.ep.repeat)
	}
	// Disagreed with nothing pending: the episode is forgotten.
	q.Resolve(third, false)
	if len(q.table) != 0 {
		t.Errorf("table holds %d episodes after every one resolved, want 0", len(q.table))
	}
	accounted(t, st)
}

// TestTriageStateIsBounded: ten thousand distinct keys leave at most a
// queue's worth of state plus what is in flight or freshly decided, and
// once the clock moves on, only queue + in flight.
func TestTriageStateIsBounded(t *testing.T) {
	q, st, clock := newTestQueue()
	var inflight []Ticket
	decided := 0
	for i := 0; i < 10000; i++ {
		clock.advance(time.Millisecond)
		q.offer(flagged(uint64(i+1), 1+rand.Float64(), uint64(i+1)))
		switch {
		case i%5 == 0 && len(inflight) < 4:
			if _, tk, ok := takeNow(q); ok {
				inflight = append(inflight, tk)
			}
		case i%7 == 0 && len(inflight) > 0:
			q.Resolve(inflight[0], true)
			inflight = inflight[1:]
			decided++
		}
		// Agreed verdicts older than contextSpan are gone; at most one
		// per 7 ms was given.
		if bound := alertBuffer + len(inflight) + int(contextSpan/(7*time.Millisecond)) + 1; len(q.table) > bound {
			t.Fatalf("after %d keys the table holds %d episodes, bound %d", i+1, len(q.table), bound)
		}
	}
	if decided == 0 || st.AlertsShedStale.Load() == 0 {
		t.Fatalf("scenario exercised nothing: %d decided, %d shed stale", decided, st.AlertsShedStale.Load())
	}
	clock.advance(2 * contextSpan)
	q.offer(flagged(1<<40, 2.0, 1<<40))
	if bound := alertBuffer + len(inflight); len(q.table) > bound || len(q.decided) != 0 {
		t.Errorf("idle table holds %d episodes (%d decided), bound %d", len(q.table), len(q.decided), bound)
	}
	for _, p := range q.table {
		if !p.pending && p.alert.Window != nil {
			t.Fatal("an episode without a pending alert still pins one")
		}
	}
	accounted(t, st)
}

// TestTriageConservationUnderConcurrency: 8 offerers against 4 takers and
// one filtered taker on the wall clock; every alert ends in exactly one
// disposition and no key is ever in two workers' hands.
func TestTriageConservationUnderConcurrency(t *testing.T) {
	stats := &Stats{}
	q := newAlertQueue(stats, obsQueueDepth.With("gnb-triage-test"), time.Now)
	const offerers, perOfferer, takers = 8, 3000, 4

	var held sync.Map // key → struct{} while a taker holds it
	var doubles atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	var tw sync.WaitGroup
	var unwanted atomic.Int64
	evenUE := func(a *Alert) bool { return a.Window[0].UEID%2 == 0 }
	for i := 0; i <= takers; i++ {
		tw.Add(1)
		go func(seed int64) {
			defer tw.Done()
			rng := rand.New(rand.NewSource(seed))
			var want func(*Alert) bool
			if seed == takers { // the last taker takes even UEs only
				want = evenUE
			}
			for {
				a, tk, ok := q.Take(ctx, want)
				if !ok {
					return
				}
				if want != nil && !want(&a) {
					unwanted.Add(1)
				}
				key := a.Window[len(a.Window)-1].UEID
				if _, dup := held.LoadOrStore(key, struct{}{}); dup {
					doubles.Add(1)
				}
				time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
				held.Delete(key)
				q.Resolve(tk, rng.Intn(2) == 0)
			}
		}(int64(i))
	}
	var ow sync.WaitGroup
	for i := 0; i < offerers; i++ {
		ow.Add(1)
		go func(seed int64) {
			defer ow.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for n := 0; n < perOfferer; n++ {
				// 200 keys: plenty of folding, and more than a queue's worth.
				q.offer(flagged(uint64(1+rng.Intn(200)), 1+rng.Float64()*4, uint64(seed)<<32|uint64(n)))
				if n%64 == 0 {
					time.Sleep(100 * time.Microsecond)
				}
			}
		}(int64(i))
	}
	ow.Wait()
	q.close() // takers drain what is due, then stop
	tw.Wait()
	cancel()

	if n := doubles.Load(); n != 0 {
		t.Errorf("%d takes handed out a key another worker held", n)
	}
	if in := accounted(t, stats); in != offerers*perOfferer {
		t.Errorf("%d alerts offered, %d counted", offerers*perOfferer, in)
	}
	if stats.AlertsTaken.Load() == 0 || stats.AlertsFolded.Load() == 0 {
		t.Errorf("scenario exercised nothing: taken %d, folded %d", stats.AlertsTaken.Load(), stats.AlertsFolded.Load())
	}
	if n := unwanted.Load(); n != 0 {
		t.Errorf("the filtered taker was handed %d alerts it did not want", n)
	}
	if r := stats.AlertsRecalled.Load(); r == 0 || r >= stats.AlertsTaken.Load() {
		t.Errorf("filtered takes %d of %d takes; want some, counted within the takes", r, stats.AlertsTaken.Load())
	}
}

// TestTriageFilteredTake: a taker with a filter is asked once per kept
// window, again when a stronger window replaces it, never about an
// episode in flight, and is handed the alert that outranks the rest among
// those it wanted, with what it noted on it; the rest stay for an
// unfiltered taker.
func TestTriageFilteredTake(t *testing.T) {
	q, st, clock := newTestQueue()
	asked := map[uint64]int{} // by indication SN
	wanted := map[uint64]bool{}
	want := func(a *Alert) bool {
		asked[a.IndicationSN]++
		if wanted[a.IndicationSN] {
			a.Recalled = a.IndicationSN
			return true
		}
		return false
	}
	takeWanted := func() (Alert, Ticket, bool) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return q.Take(ctx, want)
	}
	offer := func(ue uint64, ratio float64, sn uint64) {
		clock.advance(time.Millisecond)
		q.offer(flagged(ue, ratio, sn))
	}

	offer(1, 9.0, 11) // the strongest, not wanted
	offer(2, 2.0, 12) // wanted
	offer(3, 3.0, 13) // wanted, stronger
	wanted[12], wanted[13] = true, true
	a, tk13, ok := takeWanted()
	if !ok || a.IndicationSN != 13 || a.Recalled != uint64(13) {
		t.Fatalf("took SN %d noted %v (ok=%v); want SN 13, the strongest wanted, carrying the filter's note", a.IndicationSN, a.Recalled, ok)
	}
	a, _, ok = takeWanted()
	if !ok || a.IndicationSN != 12 {
		t.Fatalf("took SN %d (ok=%v), want SN 12", a.IndicationSN, ok)
	}
	if _, _, ok := takeWanted(); ok {
		t.Fatal("the filtered taker was handed an alert it did not want")
	}
	wanted[11] = true // the answer landed after the question: not asked again
	if _, _, ok := takeWanted(); ok {
		t.Fatal("an alert was asked about twice")
	}
	for sn, n := range asked {
		if n != 1 {
			t.Errorf("SN %d asked about %d times over five takes, want once", sn, n)
		}
	}

	// A stronger window replaces SN 11's: the question is put again.
	wanted[14] = true
	offer(1, 9.5, 14)
	a, _, ok = takeWanted()
	if !ok || a.IndicationSN != 14 || a.Folded != 1 || asked[14] != 1 {
		t.Fatalf("took SN %d folded %d (ok=%v) after %d questions; want SN 14, folded 1, asked once", a.IndicationSN, a.Folded, ok, asked[14])
	}

	// UE 3 is in flight: its next alert is neither asked about nor handed
	// out until the analysis resolves, and then it is.
	wanted[15] = true
	offer(3, 4.0, 15)
	if _, _, ok := takeWanted(); ok || asked[15] != 0 {
		t.Fatalf("an in-flight episode was handed out or asked about (ok=%v, asked %d times)", ok, asked[15])
	}
	q.Resolve(tk13, false)
	a, _, ok = takeWanted()
	if !ok || a.IndicationSN != 15 || asked[15] != 1 {
		t.Fatalf("after Resolve took SN %d (ok=%v, asked %d times); want SN 15, asked once", a.IndicationSN, ok, asked[15])
	}

	// An unwanted alert stays for an unfiltered taker, which gets a nil note.
	offer(4, 2.0, 16)
	if _, _, ok := takeWanted(); ok {
		t.Fatal("SN 16 was not wanted")
	}
	a, _, ok = takeNow(q)
	if !ok || a.IndicationSN != 16 || a.Recalled != nil {
		t.Fatalf("unfiltered take: SN %d noted %v (ok=%v), want SN 16 and no note", a.IndicationSN, a.Recalled, ok)
	}
	if st.AlertsTaken.Load() != 5 || st.AlertsRecalled.Load() != 4 {
		t.Errorf("taken %d, of which filtered %d; want 5 and 4", st.AlertsTaken.Load(), st.AlertsRecalled.Load())
	}
	accounted(t, st)
}

// TestTriageFilteredTakeWakesOnReplacement: a filtered taker parked on an
// episode whose window it did not want is woken when a stronger window
// replaces that one, and asked about the new window.
func TestTriageFilteredTakeWakesOnReplacement(t *testing.T) {
	q, st, _ := newTestQueue()
	q.offer(flagged(1, 2.0, 11))
	asked := make(chan uint64, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second) // failsafe only
	defer cancel()
	took := make(chan Alert)
	go func() {
		a, _, _ := q.Take(ctx, func(a *Alert) bool {
			asked <- a.IndicationSN
			return a.IndicationSN == 12
		})
		took <- a
	}()
	if sn := <-asked; sn != 11 {
		t.Fatalf("asked about SN %d first, want SN 11", sn)
	}
	// offer waits for the queue's lock, which the taker holds until it has
	// finished looking and is committed to waiting for the next wake.
	q.offer(flagged(1, 3.0, 12))
	if a := <-took; a.IndicationSN != 12 || a.Folded != 1 {
		t.Fatalf("took SN %d folded %d; want the replacement, SN 12, folded 1", a.IndicationSN, a.Folded)
	}
	if sn := <-asked; sn != 12 || len(asked) != 0 {
		t.Errorf("second question about SN %d, %d more; want SN 12 and none", sn, len(asked))
	}
	accounted(t, st)
}

// TestTriageFilteredTakeAtClose: once the queue is closed a filtered taker
// parked in Take returns, leaving what it does not want to the unfiltered
// takers, which drain it.
func TestTriageFilteredTakeAtClose(t *testing.T) {
	q, st, _ := newTestQueue()
	q.offer(flagged(1, 2.0, 11))
	q.offer(flagged(2, 3.0, 12))
	asked := make(chan struct{}, 2)
	lane := make(chan bool)
	go func() {
		_, _, ok := q.Take(context.Background(), func(*Alert) bool {
			asked <- struct{}{}
			return false
		})
		lane <- ok
	}()
	<-asked
	<-asked // the lane has looked at both and is parked, or about to be
	q.close()
	if ok := <-lane; ok {
		t.Fatal("a filtered Take returned an alert it did not want")
	}
	for _, sn := range []uint64{12, 11} {
		a, _, ok := q.Take(context.Background(), nil)
		if !ok || a.IndicationSN != sn {
			t.Fatalf("draining a closed queue: took SN %d (ok=%v), want SN %d", a.IndicationSN, ok, sn)
		}
	}
	if _, _, ok := q.Take(context.Background(), nil); ok {
		t.Error("a closed, empty queue handed out an alert")
	}
	accounted(t, st)
}
