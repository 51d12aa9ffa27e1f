package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterVecInterning(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_interning_total", "help", "xapp", "outcome")

	a := v.With("mobiwatch", "routed")
	b := v.With("mobiwatch", "routed")
	if a != b {
		t.Fatal("same label values returned distinct series")
	}
	c := v.With("mobiwatch", "dropped")
	if a == c {
		t.Fatal("distinct label values returned the same series")
	}
	// A second vec handle for the same family must intern into the same
	// series set.
	v2 := r.CounterVec("test_interning_total", "help", "xapp", "outcome")
	if v2.With("mobiwatch", "routed") != a {
		t.Fatal("re-registered family lost interned series")
	}

	a.Inc()
	a.Add(4)
	if a.Value() != 5 {
		t.Fatalf("counter = %d, want 5", a.Value())
	}
	if c.Value() != 0 {
		t.Fatalf("sibling series moved: %d", c.Value())
	}
}

func TestHotPathZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.CounterVec("test_zero_alloc_total", "help", "l").With("v")
	g := r.GaugeVec("test_zero_alloc_gauge", "help").With()
	h := r.HistogramVec("test_zero_alloc_seconds", "help", ExpBuckets(0.001, 2, 10)).With()

	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Add(3) }); n != 0 {
		t.Errorf("Counter.Add allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(2.5) }); n != 0 {
		t.Errorf("Gauge.Set allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.017) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.ObserveSeconds(17e6) }); n != 0 {
		t.Errorf("Histogram.ObserveSeconds allocates %v per op, want 0", n)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.GaugeVec("test_gauge", "help").With()
	g.Set(4.5)
	if g.Value() != 4.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
	g.Add(-1.5)
	if g.Value() != 3 {
		t.Fatalf("gauge after Add = %v", g.Value())
	}
}

func TestGaugeFuncSampledAtScrape(t *testing.T) {
	r := NewRegistry()
	depth := 0
	r.GaugeFunc("test_queue_depth", "help", func() float64 { return float64(depth) })
	depth = 7
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "test_queue_depth 7\n") {
		t.Fatalf("gauge func not sampled at scrape:\n%s", sb.String())
	}
	// Re-registration rebinds the callback (last writer wins).
	r.GaugeFunc("test_queue_depth", "help", func() float64 { return 9 })
	sb.Reset()
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "test_queue_depth 9\n") {
		t.Fatalf("gauge func not rebound:\n%s", sb.String())
	}
}

// TestSumGaugeUnderChurn adds and removes sources from several goroutines
// while another scrapes: each scrape reads a whole number of live
// sources, and once every goroutine has removed its own only the kept
// source is left.
func TestSumGaugeUnderChurn(t *testing.T) {
	g := NewSumGauge("test_sum_gauge_churn", "help")
	defer g.Add(func() float64 { return 100 })()
	const workers, rounds = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				g.Add(func() float64 { return 1 })()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		if v := g.Value(); v < 100 || v > 100+workers {
			t.Fatalf("scrape read %v with the kept source and at most %d others live", v, workers)
		}
	}
	if v := g.Value(); v != 100 {
		t.Errorf("after churn the gauge reads %v, want the kept source's 100", v)
	}
}

func TestConcurrentRegistryAccess(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Mix series creation, increments, observations, and
			// scrapes — the -race step of the verify recipe runs this.
			v := r.CounterVec("test_concurrent_total", "help", "worker")
			mine := v.With(string(rune('a' + id)))
			shared := v.With("shared")
			h := r.HistogramVec("test_concurrent_seconds", "help", ExpBuckets(0.001, 2, 8)).With()
			for i := 0; i < perWorker; i++ {
				mine.Inc()
				shared.Inc()
				h.Observe(float64(i) * 1e-4)
				if i%500 == 0 {
					var sb strings.Builder
					if err := r.WritePrometheus(&sb); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	shared := r.CounterVec("test_concurrent_total", "help", "worker").With("shared")
	if shared.Value() != workers*perWorker {
		t.Fatalf("shared counter = %d, want %d", shared.Value(), workers*perWorker)
	}
	h := r.HistogramVec("test_concurrent_seconds", "help", ExpBuckets(0.001, 2, 8)).With()
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
}

func TestSchemaMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("test_schema_total", "help", "a")

	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	assertPanics("kind change", func() { r.GaugeVec("test_schema_total", "help", "a") })
	assertPanics("label change", func() { r.CounterVec("test_schema_total", "help", "b") })
	assertPanics("label count change", func() { r.CounterVec("test_schema_total", "help") })
	assertPanics("bad metric name", func() { r.CounterVec("0bad", "help") })
	assertPanics("reserved label", func() { r.CounterVec("test_le_total", "help", "le") })
	assertPanics("wrong arity With", func() { r.CounterVec("test_schema_total", "help", "a").With() })
	assertPanics("empty histogram", func() { r.HistogramVec("test_h_seconds", "help", nil) })
	assertPanics("non-monotonic buckets", func() {
		r.HistogramVec("test_h2_seconds", "help", []float64{1, 1})
	})
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(0.5, 2, 4)
	want := []float64{0.5, 1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("len = %d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("ExpBuckets(0, ...) did not panic")
		}
	}()
	ExpBuckets(0, 2, 4)
}
