package obs

import (
	"strconv"
	"sync"
	"time"
)

// Span is one timed pipeline stage attributed to a trace key — in this
// stack, the E2 indication ID minted by IndicationKey, so the journey
// of one telemetry batch (gNB report → E2 routing → MobiWatch scoring →
// LLM analysis) can be reassembled after the fact.
type Span struct {
	Key   string    `json:"key"`
	Stage string    `json:"stage"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
}

// Tracer records completed spans into a bounded ring buffer: the
// newest spans win, old ones are overwritten, and recording never
// blocks the pipeline on a slow consumer.
type Tracer struct {
	clock func() time.Time

	mu      sync.Mutex
	buf     []Span
	next    int
	full    bool
	evicted uint64
}

// traceEvicted counts ring-buffer overwrites across every tracer, so
// operators can tell when /traces is lying by omission.
var traceEvicted = NewCounter("xsec_trace_evicted_total",
	"Spans overwritten (evicted) from trace ring buffers before being read.")

// NewTracer returns a tracer retaining up to capacity finished spans.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{clock: time.Now, buf: make([]Span, capacity)}
}

// setClock injects a clock (tests).
func (t *Tracer) setClock(clock func() time.Time) { t.clock = clock }

// Record stores a finished span, evicting the oldest one once the ring
// is full (evictions are counted — see Evicted).
func (t *Tracer) Record(s Span) {
	t.mu.Lock()
	if t.full {
		t.evicted++
		traceEvicted.Inc()
	}
	t.buf[t.next] = s
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
}

// ActiveSpan is an in-flight span; End records it.
type ActiveSpan struct {
	t    *Tracer
	span Span
}

// Start opens a span now; call End on the returned handle.
func (t *Tracer) Start(key, stage string) ActiveSpan {
	return ActiveSpan{t: t, span: Span{Key: key, Stage: stage, Start: t.clock()}}
}

// End stamps the span and records it.
func (a ActiveSpan) End() {
	a.span.End = a.t.clock()
	a.t.Record(a.span)
}

// Spans returns the retained spans, oldest first.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]Span(nil), t.buf[:t.next]...)
	}
	out := make([]Span, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	return append(out, t.buf[:t.next]...)
}

// ByKey returns the retained spans for one trace key, oldest first.
func (t *Tracer) ByKey(key string) []Span {
	var out []Span
	for _, s := range t.Spans() {
		if s.Key == key {
			out = append(out, s)
		}
	}
	return out
}

// DefaultTracer is the process-wide tracer the pipeline records into.
var DefaultTracer = NewTracer(4096)

// StartSpan opens a span on the default tracer.
func StartSpan(key, stage string) ActiveSpan { return DefaultTracer.Start(key, stage) }

// RecordSpan records an already-timed stage on the default tracer.
func RecordSpan(key, stage string, start, end time.Time) {
	DefaultTracer.Record(Span{Key: key, Stage: stage, Start: start, End: end})
}

// IndicationKey mints the trace key for one E2 indication: the emitting
// node plus the indication sequence number, unique per batch for the
// lifetime of a subscription.
func IndicationKey(nodeID string, sn uint64) string {
	return nodeID + "/" + strconv.FormatUint(sn, 10)
}
