package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	t0 := tr.epoch
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	p := tr.record("e2ap.encode", 0, "k", at(0), at(100))
	tr.record("mobiflow.append_trace", p, "k", at(10), at(70))
	tr.record("e2ap.encode", 0, "k2", at(200), at(250))
	self := selfTimes(tr.spans)
	if self["e2ap.encode"] != 90*time.Microsecond || self["mobiflow.append_trace"] != 60*time.Microsecond {
		t.Errorf("self times = %v", self)
	}
	var nilTracer *tracer
	if id := nilTracer.record("x", 0, "", at(0), at(1)); id != 0 {
		t.Errorf("nil tracer returned span id %d", id)
	}
}

func TestSegmentsSumCheck(t *testing.T) {
	tr := newTracer()
	at := func(us int) time.Time { return tr.epoch.Add(time.Duration(us) * time.Microsecond) }
	p := tr.record("case", 0, "k", at(0), at(100))
	tr.record("seg.gnb_e2", p, "k", at(0), at(40))
	tr.record("seg.score", p, "k", at(40), at(100))
	if !segmentsSum(tr.spans) {
		t.Fatal("exact partition rejected")
	}
	q := tr.record("case", 0, "k2", at(0), at(100))
	tr.record("seg.gnb_e2", q, "k2", at(0), at(40))
	if segmentsSum(tr.spans) {
		t.Fatal("a case whose segments fall 60 us short passed")
	}
}
