package obs

import (
	"testing"
	"time"
)

func TestTracerStartEnd(t *testing.T) {
	tr := NewTracer(8)
	now := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	tr.setClock(func() time.Time {
		now = now.Add(time.Millisecond)
		return now
	})

	sp := tr.Start(IndicationKey("gnb-001", 7), "ric.route")
	sp.End()

	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("len = %d", len(spans))
	}
	s := spans[0]
	if s.Key != "gnb-001/7" || s.Stage != "ric.route" {
		t.Fatalf("span = %+v", s)
	}
	if s.End.Sub(s.Start) != time.Millisecond {
		t.Fatalf("duration = %v", s.End.Sub(s.Start))
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.Record(Span{Key: IndicationKey("n", uint64(i)), Stage: "s"})
	}
	if len(tr.Spans()) != 3 {
		t.Fatalf("len = %d, want 3", len(tr.Spans()))
	}
	spans := tr.Spans()
	// Oldest-first with the two earliest evicted.
	want := []string{"n/2", "n/3", "n/4"}
	for i, s := range spans {
		if s.Key != want[i] {
			t.Fatalf("spans[%d].Key = %q, want %q (all: %+v)", i, s.Key, want[i], spans)
		}
	}
}

func TestTracerByKey(t *testing.T) {
	tr := NewTracer(16)
	tr.Record(Span{Key: "a/1", Stage: "gnb.report"})
	tr.Record(Span{Key: "a/2", Stage: "gnb.report"})
	tr.Record(Span{Key: "a/1", Stage: "ric.route"})
	got := tr.ByKey("a/1")
	if len(got) != 2 || got[0].Stage != "gnb.report" || got[1].Stage != "ric.route" {
		t.Fatalf("ByKey = %+v", got)
	}
}

func TestIndicationKey(t *testing.T) {
	if k := IndicationKey("gnb-oai-42", 1337); k != "gnb-oai-42/1337" {
		t.Fatalf("key = %q", k)
	}
}

func TestTracerByKeyAfterEviction(t *testing.T) {
	tr := NewTracer(3)
	tr.Record(Span{Key: "a/1", Stage: "gnb.report"})
	tr.Record(Span{Key: "a/2", Stage: "gnb.report"})
	tr.Record(Span{Key: "a/1", Stage: "ric.route"})
	tr.Record(Span{Key: "a/3", Stage: "gnb.report"}) // evicts a/1 "gnb.report"

	got := tr.ByKey("a/1")
	if len(got) != 1 || got[0].Stage != "ric.route" {
		t.Fatalf("ByKey after eviction = %+v, want only the surviving ric.route span", got)
	}
	if got := tr.ByKey("a/2"); len(got) != 1 {
		t.Fatalf("unevicted key lost: %+v", got)
	}
}

func TestTracerLenAtCapacity(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 16; i++ {
		tr.Record(Span{Key: IndicationKey("n", uint64(i)), Stage: "s"})
		if want := i + 1; want > 4 {
			want = 4
		} else if len(tr.Spans()) != want {
			t.Fatalf("Len after %d records = %d, want %d", i+1, len(tr.Spans()), want)
		}
		if len(tr.Spans()) > 4 {
			t.Fatalf("Len = %d exceeds capacity", len(tr.Spans()))
		}
	}
	if len(tr.Spans()) != 4 {
		t.Fatalf("Len at capacity = %d, want 4", len(tr.Spans()))
	}
}

func TestTracerEvictedCounter(t *testing.T) {
	tr := NewTracer(2)
	before := traceEvicted.Value()
	for i := 0; i < 5; i++ {
		tr.Record(Span{Key: "k", Stage: "s"})
	}
	if tr.evicted != 3 {
		t.Fatalf("Evicted = %d, want 3", tr.evicted)
	}
	if got := traceEvicted.Value() - before; got != 3 {
		t.Fatalf("xsec_trace_evicted_total advanced by %d, want 3", got)
	}
}
