package analyzer

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/llm"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/sdl"
	"github.com/6g-xsec/xsec/internal/ue"
)

// stubExpert answers instantly with a canned analysis, tracking peak
// concurrency so the pool tests can prove parallelism and its bound.
type stubExpert struct {
	served    string
	delay     time.Duration
	inflight  atomic.Int64
	peak      atomic.Int64
	processed atomic.Uint64
}

// enter counts one more call in flight, raising peak to it, and returns
// the function that counts it out again.
func enter(inflight, peak *atomic.Int64) (leave func()) {
	cur := inflight.Add(1)
	for {
		old := peak.Load()
		if cur <= old || peak.CompareAndSwap(old, cur) {
			break
		}
	}
	return func() { inflight.Add(-1) }
}

func (s *stubExpert) AnalyzeWindow(ctx context.Context, window mobiflow.Trace) (*llm.Analysis, error) {
	defer enter(&s.inflight, &s.peak)()
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s.processed.Add(1)
	return &llm.Analysis{
		Verdict:    llm.VerdictAnomalous,
		Confidence: 0.9,
		Hypotheses: []llm.Hypothesis{{Class: llm.ClassNullCipher, Likelihood: 0.9}},
		Served:     s.served,
	}, nil
}

// chanSource is a FIFO AlertSource over a closed channel that records
// what the pool reported back.
type chanSource struct {
	alerts   chan mobiwatch.Alert
	resolved atomic.Int64
	agreed   atomic.Int64
}

func (s *chanSource) Take(ctx context.Context, _ func(*mobiwatch.Alert) bool) (mobiwatch.Alert, mobiwatch.Ticket, bool) {
	select {
	case a, ok := <-s.alerts:
		return a, mobiwatch.Ticket{}, ok
	case <-ctx.Done():
		return mobiwatch.Alert{}, mobiwatch.Ticket{}, false
	}
}

func (s *chanSource) Resolve(_ mobiwatch.Ticket, agreed bool) {
	s.resolved.Add(1)
	if agreed {
		s.agreed.Add(1)
	}
}

func sourceOf(alerts ...mobiwatch.Alert) *chanSource {
	s := &chanSource{alerts: make(chan mobiwatch.Alert, len(alerts))}
	for _, a := range alerts {
		s.alerts <- a
	}
	close(s.alerts)
	return s
}

func poolAlerts(t *testing.T, n int) *chanSource {
	t.Helper()
	l := mixedTrace(t)
	window := windowOf(l, ue.AttackNullCipher)
	alerts := make([]mobiwatch.Alert, n)
	for i := range alerts {
		alerts[i] = mobiwatch.Alert{
			NodeID: "gnb-001", Model: mobiwatch.ModelAE, Score: 0.5, Threshold: 0.1,
			IndicationSN: uint64(i), Window: window, At: time.Now(),
		}
	}
	return sourceOf(alerts...)
}

func TestRunPoolProcessesEveryAlert(t *testing.T) {
	expert := &stubExpert{served: llm.ServedLive, delay: 5 * time.Millisecond}
	a := New(expert, sdl.New())
	const n = 24
	got := 0
	src := poolAlerts(t, n)
	for c := range a.RunPool(context.Background(), src, PoolOptions{Workers: 4}) {
		if c.Analysis == nil {
			t.Error("case without analysis")
		}
		got++
	}
	if got != n {
		t.Errorf("cases = %d, want %d (zero dropped alerts)", got, n)
	}
	if peak := expert.peak.Load(); peak < 2 || peak > 4 {
		t.Errorf("peak concurrency = %d, want 2..4 (parallel but bounded)", peak)
	}
	if a.Stats().Processed.Load() != n {
		t.Errorf("processed = %d", a.Stats().Processed.Load())
	}
	// The stub expert agrees with every alert, and the pool says so.
	if r, ag := src.resolved.Load(), src.agreed.Load(); r != n || ag != n {
		t.Errorf("resolved %d alerts, %d as agreed; want %d and %d", r, ag, n, n)
	}
}

func TestRunPoolSingleWorkerIsSerial(t *testing.T) {
	expert := &stubExpert{served: llm.ServedLive, delay: time.Millisecond}
	a := New(expert, sdl.New())
	for range a.RunPool(context.Background(), poolAlerts(t, 8), PoolOptions{Workers: 1}) {
	}
	if peak := expert.peak.Load(); peak != 1 {
		t.Errorf("peak concurrency = %d, want 1", peak)
	}
}

func TestRunPoolCancellation(t *testing.T) {
	expert := &stubExpert{served: llm.ServedLive, delay: time.Hour}
	a := New(expert, sdl.New())
	ctx, cancel := context.WithCancel(context.Background())
	out := a.RunPool(ctx, poolAlerts(t, 8), PoolOptions{Workers: 2})
	time.Sleep(20 * time.Millisecond) // let workers block in the expert
	cancel()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-out:
			if !ok {
				return // pool wound down promptly
			}
		case <-deadline:
			t.Fatal("pool did not stop after cancellation")
		}
	}
}

// TestProcessCountsServingSources verifies the analyzer's stats and case
// handling distinguish cached and degraded verdicts.
func TestProcessCountsServingSources(t *testing.T) {
	l := mixedTrace(t)
	alert := mobiwatch.Alert{
		NodeID: "gnb-001", Model: mobiwatch.ModelAE, Score: 0.5, Threshold: 0.1,
		Window: windowOf(l, ue.AttackNullCipher), At: time.Now(),
	}
	for _, tc := range []struct {
		served       string
		wantCached   uint64
		wantDegraded uint64
	}{
		{llm.ServedCache, 1, 0},
		{llm.ServedCoalesced, 1, 0},
		{llm.ServedDegraded, 0, 1},
		{llm.ServedLive, 0, 0},
	} {
		a := New(&stubExpert{served: tc.served}, sdl.New())
		c, err := a.process(context.Background(), alert, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !c.Agree {
			t.Errorf("%s: agree = false", tc.served)
		}
		if got := a.Stats().Cached.Load(); got != tc.wantCached {
			t.Errorf("%s: cached = %d, want %d", tc.served, got, tc.wantCached)
		}
		if got := a.Stats().Degraded.Load(); got != tc.wantDegraded {
			t.Errorf("%s: degraded = %d, want %d", tc.served, got, tc.wantDegraded)
		}
	}
}

// gatedExpert is an expert whose round trips park on gate and which
// recalls the windows whose first record's sequence number it remembers.
type gatedExpert struct {
	gate     chan struct{} // closed: round trips return
	entered  chan uint64   // a round trip began, for this Seq
	asked    chan uint64   // Recall was put this Seq
	remember map[uint64]bool

	inflight, peak, completed atomic.Int64
}

func (g *gatedExpert) answer(served string) *llm.Analysis {
	return &llm.Analysis{
		Verdict:    llm.VerdictAnomalous,
		Confidence: 0.9,
		Hypotheses: []llm.Hypothesis{{Class: llm.ClassNullCipher, Likelihood: 0.9}},
		Served:     served,
	}
}

func (g *gatedExpert) AnalyzeWindow(ctx context.Context, window mobiflow.Trace) (*llm.Analysis, error) {
	defer enter(&g.inflight, &g.peak)()
	g.entered <- window[0].Seq
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	g.completed.Add(1)
	return g.answer(llm.ServedLive), nil
}

func (g *gatedExpert) Recall(window mobiflow.Trace) (*llm.Analysis, bool) {
	g.asked <- window[0].Seq
	if !g.remember[window[0].Seq] {
		return nil, false
	}
	return g.answer(llm.ServedCache), true
}

// listSource is an AlertSource that honours want: FIFO among the alerts
// the taker wants, each asked about once.
type listSource struct {
	mu      sync.Mutex
	pending []*listed
	wake    chan struct{}
	closed  bool
}

type listed struct {
	alert         mobiwatch.Alert
	asked, wanted bool
}

// change applies f to the source and wakes every parked taker.
func (s *listSource) change(f func()) {
	s.mu.Lock()
	f()
	close(s.wake)
	s.wake = make(chan struct{})
	s.mu.Unlock()
}

func (s *listSource) push(a mobiwatch.Alert) {
	s.change(func() { s.pending = append(s.pending, &listed{alert: a}) })
}

func (s *listSource) close() { s.change(func() { s.closed = true }) }

func (s *listSource) Take(ctx context.Context, want func(*mobiwatch.Alert) bool) (mobiwatch.Alert, mobiwatch.Ticket, bool) {
	for {
		s.mu.Lock()
		for i, l := range s.pending {
			if want != nil && !l.asked {
				l.asked, l.wanted = true, want(&l.alert)
			}
			if want == nil || l.wanted {
				s.pending = append(s.pending[:i], s.pending[i+1:]...)
				s.mu.Unlock()
				return l.alert, mobiwatch.Ticket{}, true
			}
		}
		closed, wake := s.closed, s.wake
		s.mu.Unlock()
		if closed {
			return mobiwatch.Alert{}, mobiwatch.Ticket{}, false
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return mobiwatch.Alert{}, mobiwatch.Ticket{}, false
		}
	}
}

func (s *listSource) Resolve(mobiwatch.Ticket, bool) {}

// TestRunPoolRecallLaneBypassesRoundTrips: with every round-trip worker
// parked inside the expert, an alert the expert recalls is delivered at
// once and one it does not recall waits; the lane never enters a round
// trip, so Workers bounds the round trips in flight with the lane running.
func TestRunPoolRecallLaneBypassesRoundTrips(t *testing.T) {
	const workers = 2
	expert := &gatedExpert{
		gate:     make(chan struct{}),
		entered:  make(chan uint64, 8),
		asked:    make(chan uint64, 8),
		remember: map[uint64]bool{103: true, 105: true},
	}
	alert := func(seq uint64) mobiwatch.Alert {
		return mobiwatch.Alert{
			NodeID: "gnb-001", Model: mobiwatch.ModelAE, Score: 0.5, Threshold: 0.1, IndicationSN: seq,
			Window: mobiflow.Trace{{Seq: seq, UEID: seq, Msg: "RRCSetupRequest"}}, At: time.Now(),
		}
	}
	failsafe := time.After(30 * time.Second)
	recv := func(ch <-chan uint64, what string) uint64 {
		t.Helper()
		select {
		case v := <-ch:
			return v
		case <-failsafe:
			t.Fatalf("timed out waiting for %s", what)
			return 0
		}
	}
	src := &listSource{wake: make(chan struct{})}
	a := New(expert, sdl.New())
	out := a.RunPool(context.Background(), src, PoolOptions{Workers: workers})
	delivered := func(what string) *Case {
		t.Helper()
		select {
		case c := <-out:
			return c
		case <-failsafe:
			t.Fatalf("timed out waiting for %s", what)
			return nil
		}
	}

	// Park both workers. The lane may be asked about either alert first;
	// it recalls neither.
	src.push(alert(101))
	src.push(alert(102))
	recv(expert.entered, "the first round trip")
	recv(expert.entered, "the second round trip")

	// Recalled: delivered while the gate is shut.
	src.push(alert(103))
	if c := delivered("the recalled alert"); c.Alert.IndicationSN != 103 || c.Analysis.Served != llm.ServedCache || c.Alert.Recalled != nil {
		t.Fatalf("delivered SN %d served %q (note %v); want the recalled SN 103", c.Alert.IndicationSN, c.Analysis.Served, c.Alert.Recalled)
	}
	// Not recalled: the lane asks, and leaves it. The lane is one
	// goroutine, so the next recalled alert coming through proves it did
	// not follow SN 104 into the expert.
	src.push(alert(104))
	for recv(expert.asked, "the lane's question about SN 104") != 104 {
	}
	src.push(alert(105))
	if c := delivered("the second recalled alert"); c.Alert.IndicationSN != 105 {
		t.Fatalf("delivered SN %d with every worker parked, want the recalled SN 105", c.Alert.IndicationSN)
	}
	select {
	case c := <-out:
		t.Fatalf("SN %d was delivered with every round-trip worker parked", c.Alert.IndicationSN)
	default:
	}
	if n := expert.completed.Load(); n != 0 {
		t.Fatalf("%d round trips completed behind a shut gate", n)
	}
	if len(expert.entered) != 0 || expert.inflight.Load() != workers {
		t.Fatalf("%d round trips in flight and %d more begun, want %d and 0", expert.inflight.Load(), len(expert.entered), workers)
	}

	close(expert.gate)
	src.close()
	got := map[uint64]bool{}
	for c := range out {
		got[c.Alert.IndicationSN] = true
	}
	if len(got) != 3 || !got[101] || !got[102] || !got[104] {
		t.Errorf("round-trip workers delivered %v, want SN 101, 102 and 104", got)
	}
	if peak := expert.peak.Load(); peak != workers {
		t.Errorf("peak round trips in flight = %d, want %d", peak, workers)
	}
	if n := a.Stats().Processed.Load(); n != 5 {
		t.Errorf("processed = %d, want 5", n)
	}
}

// TestCachedFalsePositiveAllocs gates what a round-trip worker allocates
// on a case the expert answers from memory and disagrees with, the
// false-positive path of benign load: the lookup keys the window on the
// stack and sets no deadline, and the escalation is encoded into a reused
// buffer, so the case costs the Case, the review entry's key and the one
// copy of the entry the store keeps.
func TestCachedFalsePositiveAllocs(t *testing.T) {
	l := mixedTrace(t)
	// Claude misses BTS DoS (Table 3): the cached verdict disagrees.
	svc := llm.NewService(llm.NewClient(startExpert(t), "claude-3-sonnet"), llm.ServingOptions{})
	defer svc.Close()
	a := New(svc, sdl.New())
	// What MobiWatch hands the analyzer: a window and its context, at most
	// 4 + 12 records.
	window := windowOf(l, ue.AttackBTSDoS)
	window = window[:min(len(window), 16)]
	alert := mobiwatch.Alert{
		NodeID: "gnb-001", Model: mobiwatch.ModelAE, Score: 0.5, Threshold: 0.1,
		IndicationSN: 7, TraceKey: "gnb-001/7", Window: window, Context: window, At: time.Now(),
	}
	if _, err := svc.AnalyzeWindow(context.Background(), window); err != nil {
		t.Fatal(err)
	}
	cached := func() {
		recalled, _, ok := svc.Lookup(expertWindow(&alert))
		if !ok {
			t.Fatal("the primed window is not in the verdict cache")
		}
		c, err := a.process(context.Background(), alert, recalled, nil)
		if err != nil || !c.NeedsHuman {
			t.Fatalf("case %+v, err %v; want a disagreement escalated", c, err)
		}
	}
	cached()
	if n := testing.AllocsPerRun(200, cached); n > 3 {
		t.Errorf("a cached false-positive case allocates %v times, want at most 3 (case, review key, stored entry)", n)
	}
}

// TestPoolLooksEachCaseUpOnce runs a mixed stream — windows of every
// attack, each many times, interleaved — through a pool of round-trip
// workers and the recall lane over one llm.Service: every case is looked
// up in the verdict cache exactly once (hits + misses = cases), and every
// miss is a live answer or a coalesced one.
func TestPoolLooksEachCaseUpOnce(t *testing.T) {
	l := mixedTrace(t)
	svc := llm.NewService(llm.NewClient(startExpert(t), "chatgpt-4o"), llm.ServingOptions{})
	defer svc.Close()
	var windows []mobiflow.Trace
	for _, k := range []ue.AttackKind{ue.AttackBTSDoS, ue.AttackBlindDoS, ue.AttackNullCipher, ue.AttackUplinkIDExtraction, ue.AttackDownlinkIDExtraction} {
		if w := windowOf(l, k); len(w) > 0 {
			windows = append(windows, w)
		}
	}
	const n = 200
	alerts := make([]mobiwatch.Alert, n)
	for i := range alerts {
		w := windows[i*7%len(windows)]
		alerts[i] = mobiwatch.Alert{
			NodeID: "gnb-001", Model: mobiwatch.ModelAE, Score: 0.5, Threshold: 0.1,
			IndicationSN: uint64(i), Window: w, At: time.Now(),
		}
	}
	a := New(svc, sdl.New())
	before := llmCounts()
	got := 0
	for range a.RunPool(context.Background(), sourceOf(alerts...), PoolOptions{Workers: 4}) {
		got++
	}
	after := llmCounts()
	d := func(name string) uint64 { return after[name] - before[name] }
	hits, misses := d("xsec_llm_cache_hits_total"), d("xsec_llm_cache_misses_total")
	live, coalesced, shed := d("xsec_llm_served_total/live"), d("xsec_llm_coalesced_total"), d("xsec_llm_shed_total")
	t.Logf("%d cases: %d hits, %d misses (%d live, %d coalesced, %d shed)", got, hits, misses, live, coalesced, shed)
	if got != n || hits+misses != n {
		t.Errorf("%d cases, %d looked up (%d hits + %d misses); want %d of each", got, hits+misses, hits, misses, n)
	}
	if misses != live+coalesced+shed || misses < uint64(len(windows)) {
		t.Errorf("%d misses, %d live + %d coalesced + %d shed; want them equal and at least one per window (%d)",
			misses, live, coalesced, shed, len(windows))
	}
	if a.Stats().Cached.Load() != hits+coalesced {
		t.Errorf("the analyzer counts %d cached verdicts, the service served %d from memory", a.Stats().Cached.Load(), hits+coalesced)
	}
}

// llmCounts reads the serving layer's process-wide counters, a labelled
// series as name/value.
func llmCounts() map[string]uint64 {
	out := map[string]uint64{}
	for _, sn := range obs.Default.Snapshot() {
		name := sn.Name
		if src := sn.Labels["source"]; src != "" {
			name += "/" + src
		}
		out[name] = uint64(sn.Value)
	}
	return out
}
