// Package obs is the observability layer of the 6G-XSec stack: a
// concurrency-safe metrics registry (counters, gauges, and histograms
// with fixed exponential buckets, all labelable), the process-wide
// log/slog logger, and span-style pipeline tracing keyed by E2
// indication ID.
// Everything is pure standard library and allocation-free on the hot
// paths (Counter.Inc, Gauge.Set, Histogram.Observe).
//
// The package follows the Prometheus data model: metrics belong to
// named families, label sets identify series within a family, and the
// whole registry renders to the Prometheus text exposition format
// (Registry.WritePrometheus) served by the HTTP handler in this
// package alongside net/http/pprof.
//
// Instrumented packages declare their metrics as package-level
// variables against the process-wide Default registry:
//
//	var routed = obs.NewCounterVec("xsec_ric_indications_total",
//	        "Indications routed to xApps.", "xapp", "outcome")
//	...
//	c := routed.With("mobiwatch", "routed") // intern once
//	c.Inc()                                 // hot path: zero alloc
//
// With interns the label set: calling it again with the same values
// returns the identical series, so handles should be resolved outside
// hot loops and the increment itself costs one atomic add.
package obs

import "sync"

// Default is the process-wide registry. The convenience constructors
// (NewCounter, NewGauge, NewHistogram, and their Vec variants) register
// against it; pipeline binaries expose it via ListenAndServe.
var Default = NewRegistry()

// NewCounter registers (or fetches) an unlabeled counter in Default.
func NewCounter(name, help string) *Counter {
	return Default.CounterVec(name, help).With()
}

// NewCounterVec registers (or fetches) a labeled counter family in
// Default.
func NewCounterVec(name, help string, labels ...string) *CounterVec {
	return Default.CounterVec(name, help, labels...)
}

// NewGauge registers (or fetches) an unlabeled gauge in Default.
func NewGauge(name, help string) *Gauge {
	return Default.GaugeVec(name, help).With()
}

// NewGaugeVec registers (or fetches) a labeled gauge family in Default.
func NewGaugeVec(name, help string, labels ...string) *GaugeVec {
	return Default.GaugeVec(name, help, labels...)
}

// NewGaugeFunc registers a gauge in Default whose value is sampled by
// calling fn at scrape time. Re-registering replaces the callback (last
// writer wins); a component with several live instances uses SumGauge.
func NewGaugeFunc(name, help string, fn func() float64) {
	Default.GaugeFunc(name, help, fn)
}

// SumGauge is a gauge in Default whose value at scrape time is the sum
// over the sources registered with it. A component that comes and goes
// (a node, its serving layer, its mitigation engine) adds its source in
// its constructor and removes it in Close: colocated instances share the
// series, and a closed one is neither counted nor kept reachable. It is
// still needed with one RIC a process: tests and benchmark/ run several
// core nodes in one process, one after another or side by side.
type SumGauge struct {
	mu   sync.Mutex
	next uint64
	src  map[uint64]func() float64
}

// NewSumGauge registers a summing gauge in Default.
func NewSumGauge(name, help string) *SumGauge {
	g := &SumGauge{src: make(map[uint64]func() float64)}
	NewGaugeFunc(name, help, g.Value)
	return g
}

// Add registers fn as a source and returns the function that removes it.
func (g *SumGauge) Add(fn func() float64) (remove func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	id := g.next
	g.next++
	g.src[id] = fn
	return func() {
		g.mu.Lock()
		delete(g.src, id)
		g.mu.Unlock()
	}
}

// Value sums the registered sources. They are called outside the lock,
// so a source may take its component's own lock.
func (g *SumGauge) Value() float64 {
	g.mu.Lock()
	fns := make([]func() float64, 0, len(g.src))
	for _, fn := range g.src {
		fns = append(fns, fn)
	}
	g.mu.Unlock()
	var sum float64
	for _, fn := range fns {
		sum += fn()
	}
	return sum
}

// NewHistogram registers (or fetches) an unlabeled histogram in
// Default with the given bucket upper bounds.
func NewHistogram(name, help string, buckets []float64) *Histogram {
	return Default.HistogramVec(name, help, buckets).With()
}

// NewHistogramVec registers (or fetches) a labeled histogram family in
// Default.
func NewHistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return Default.HistogramVec(name, help, buckets, labels...)
}
