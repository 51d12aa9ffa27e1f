package analyzer

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/llm"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/sdl"
	"github.com/6g-xsec/xsec/internal/ue"
)

// The obs registry is process-global, so assertions are on deltas.

func TestObsDetectLatency(t *testing.T) {
	l := mixedTrace(t)
	base := startExpert(t)
	a := New(llm.NewClient(base, "chatgpt-4o"), sdl.New())

	before := obsDetectLat.Count()
	alert := mobiwatch.Alert{
		NodeID: "gnb-obs", Model: mobiwatch.ModelAE, Score: 0.5, Threshold: 0.1,
		Window: windowOf(l, ue.AttackBTSDoS), At: time.Now(),
		ReceivedAt:   time.Now().Add(-25 * time.Millisecond),
		IndicationSN: 7,
	}
	if _, err := a.process(context.Background(), alert, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := obsDetectLat.Count(); got != before+1 {
		t.Fatalf("detect latency count = %d, want %d", got, before+1)
	}

	// The end-to-end histogram is scrapeable under its paper-facing name.
	var sb strings.Builder
	if err := obs.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE xsec_detect_latency_seconds histogram\n",
		`xsec_detect_latency_seconds_bucket{le="+Inf"} `,
		"xsec_detect_latency_seconds_sum ",
		"xsec_detect_latency_seconds_count ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Process left an analyzer span on the indication's trace key.
	spans := obs.DefaultTracer.ByKey(obs.IndicationKey("gnb-obs", 7))
	found := false
	for _, s := range spans {
		if s.Stage == "analyzer.process" {
			found = true
		}
	}
	if !found {
		t.Errorf("no analyzer.process span for gnb-obs/7 (spans: %+v)", spans)
	}
}

func TestObsDetectLatencySkippedWithoutReceivedAt(t *testing.T) {
	l := mixedTrace(t)
	base := startExpert(t)
	a := New(llm.NewClient(base, "chatgpt-4o"), sdl.New())

	before := obsDetectLat.Count()
	alert := mobiwatch.Alert{
		NodeID: "gnb-obs", Model: mobiwatch.ModelAE, Score: 0.5, Threshold: 0.1,
		Window: windowOf(l, ue.AttackBTSDoS), At: time.Now(),
		// ReceivedAt deliberately zero: replayed or synthetic alerts must
		// not pollute the latency distribution.
	}
	if _, err := a.process(context.Background(), alert, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := obsDetectLat.Count(); got != before {
		t.Errorf("detect latency count moved on zero ReceivedAt: %d -> %d", before, got)
	}
}
