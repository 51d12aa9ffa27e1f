package analyzer

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/llm"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
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

func (s *stubExpert) AnalyzeWindow(ctx context.Context, window mobiflow.Trace) (*llm.Analysis, error) {
	cur := s.inflight.Add(1)
	defer s.inflight.Add(-1)
	for {
		old := s.peak.Load()
		if cur <= old || s.peak.CompareAndSwap(old, cur) {
			break
		}
	}
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

func (s *chanSource) Take(ctx context.Context) (mobiwatch.Alert, mobiwatch.Ticket, bool) {
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
		c, err := a.Process(context.Background(), alert)
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
