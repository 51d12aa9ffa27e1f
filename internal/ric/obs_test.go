package ric

import (
	"strings"
	"testing"

	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// The obs registry is process-global, so these tests assert deltas on
// interned series rather than absolute values.

func TestObsIndicationCounters(t *testing.T) {
	p := NewPlatform(sdl.New())
	defer p.Close()
	node := startFakeNode(t, p, "gnb-obs", false)
	waitFor(t, func() bool { return len(p.Nodes()) == 1 })

	x, err := p.RegisterXApp("obs-probe")
	if err != nil {
		t.Fatal(err)
	}
	// Buffer of one and no consumer: the first indication fills the
	// channel, the second hits the non-blocking send's drop path.
	sub, err := x.Subscribe("gnb-obs", 2, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	routed := obsIndications.With("obs-probe", "routed")
	dropped := obsIndications.With("obs-probe", "dropped")
	r0, d0 := routed.Value(), dropped.Value()

	if err := node.indicate(sub.ID, 1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return routed.Value() == r0+1 })
	if err := node.indicate(sub.ID, 2, []byte("b")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return dropped.Value() == d0+1 })
	if routed.Value() != r0+1 {
		t.Errorf("routed = %d, want %d", routed.Value(), r0+1)
	}

	// The per-xApp series appear in the exposition (labels render in
	// declaration order: xapp, outcome).
	var sb strings.Builder
	if err := obs.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`xsec_ric_indications_total{xapp="obs-probe",outcome="routed"} `,
		`xsec_ric_indications_total{xapp="obs-probe",outcome="dropped"} `,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The routing stage left a span for the indication's trace key.
	if spans := obs.DefaultTracer.ByKey(obs.IndicationKey("gnb-obs", 1)); len(spans) == 0 {
		t.Error("no ric.route span recorded for gnb-obs/1")
	}
}

func TestObsNodeGauge(t *testing.T) {
	p := NewPlatform(sdl.New())
	defer p.Close()
	startFakeNode(t, p, "gnb-g1", false)
	waitFor(t, func() bool { return len(p.Nodes()) == 1 })
	// The gauge tracks this platform's last attach/detach; another test's
	// platform may overwrite it afterwards, so sample promptly.
	if v := obsNodes.Value(); v != 1 {
		t.Errorf("xsec_ric_e2_nodes = %v, want 1", v)
	}
}
