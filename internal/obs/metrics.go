package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates metric families.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Registry is a concurrency-safe collection of metric families. The
// zero value is not usable; call NewRegistry (or use Default).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// family is one named metric with a fixed kind and label schema. Series
// within the family are keyed by their interned label values.
type family struct {
	name    string
	help    string
	kind    Kind
	labels  []string
	buckets []float64 // histogram upper bounds, strictly increasing

	mu      sync.RWMutex
	series  map[string]any // *Counter | *Gauge | *Histogram
	gaugeFn func() float64 // sampled at scrape when non-nil
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// validName enforces the Prometheus metric/label name charset.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// family registers or fetches a family, panicking when an existing
// registration disagrees on kind, labels, or buckets — that is a
// programming error, not a runtime condition.
func (r *Registry) family(name, help string, kind Kind, labels []string, buckets []float64) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) || l == "le" {
			panic(fmt.Sprintf("obs: invalid label name %q on metric %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !slices.Equal(f.labels, labels) || !slices.Equal(f.buckets, buckets) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different schema", name))
		}
		return f
	}
	f := &family{
		name: name, help: help, kind: kind,
		labels:  append([]string(nil), labels...),
		buckets: append([]float64(nil), buckets...),
		series:  make(map[string]any),
	}
	r.families[name] = f
	return f
}

// labelKey joins label values with an unprintable separator; the result
// identifies a series within its family.
func labelKey(values []string) string {
	return strings.Join(values, "\xff")
}

func splitKey(key string, n int) []string {
	if n == 0 {
		return nil
	}
	return strings.SplitN(key, "\xff", n)
}

// with interns the series for the given label values, creating it with
// mk on first use. The returned value is stable: equal label values
// always yield the identical series.
func (f *family) with(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.RLock()
	s, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[key]; ok {
		return s
	}
	s = mk()
	f.series[key] = s
	return s
}

// sortedKeys snapshots the family's series keys in render order.
func (f *family) sortedKeys() []string {
	f.mu.RLock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	f.mu.RUnlock()
	sort.Strings(keys)
	return keys
}

// Counter is a monotonically increasing series. Inc and Add are
// wait-free atomic operations and perform no allocation.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// CounterVec is a labeled counter family handle.
type CounterVec struct {
	f *family
}

// CounterVec registers (or fetches) a counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, KindCounter, labels, nil)}
}

// With interns and returns the series for the given label values.
// Resolve handles outside hot loops; the Counter itself is zero-alloc.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.with(values, func() any { return new(Counter) }).(*Counter)
}

// Gauge is a series that can go up and down. All operations are atomic
// and allocation-free.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits representation
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (negative to subtract).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// GaugeVec is a labeled gauge family handle.
type GaugeVec struct {
	f *family
}

// GaugeVec registers (or fetches) a gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, KindGauge, labels, nil)}
}

// With interns and returns the series for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.with(values, func() any { return new(Gauge) }).(*Gauge)
}

// GaugeFunc registers an unlabeled gauge sampled by fn at scrape time.
// Re-registering replaces the callback (last writer wins) so that
// restartable components can re-bind their live state.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, KindGauge, nil, nil)
	f.mu.Lock()
	f.gaugeFn = fn
	f.mu.Unlock()
}
