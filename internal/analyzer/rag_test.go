package analyzer

import (
	"context"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/llm"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/sdl"
	"github.com/6g-xsec/xsec/internal/ue"
)

// TestRAGTurnsDisagreementIntoAgreement: the zero-shot chatgpt-4o analyst
// misses the uplink identity extraction (Table 3) so the case goes to
// human review; with retrieval-augmented prompting the same analyst
// confirms the detector and the case auto-resolves.
func TestRAGTurnsDisagreementIntoAgreement(t *testing.T) {
	l := mixedTrace(t)
	base := startExpert(t)
	window := windowOf(l, ue.AttackUplinkIDExtraction)
	alert := mobiwatch.Alert{Model: mobiwatch.ModelAE, Score: 0.3, Threshold: 0.05, Window: window, At: time.Now()}

	// Zero-shot: disagreement.
	zero := New(llm.NewClient(base, "chatgpt-4o"), sdl.New())
	c0, err := zero.process(context.Background(), alert, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c0.Agree || !c0.NeedsHuman {
		t.Fatalf("zero-shot case: agree=%v human=%v, want disagreement", c0.Agree, c0.NeedsHuman)
	}

	// RAG: agreement with the correct classification.
	client := llm.NewClient(base, "chatgpt-4o")
	client.RAG = true
	rag := New(client, sdl.New())
	c1, err := rag.process(context.Background(), alert, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !c1.Agree || c1.NeedsHuman {
		t.Fatalf("RAG case: agree=%v human=%v, want agreement", c1.Agree, c1.NeedsHuman)
	}
	if c1.Analysis.TopClass() != llm.ClassUplinkIDExtraction {
		t.Errorf("RAG classification = %v", c1.Analysis.TopClass())
	}
	// Identity extraction yields no automated control (privacy incident,
	// not a RAN-controllable condition).
	if c1.Control != nil {
		t.Errorf("unexpected control %+v", c1.Control)
	}
}
