package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/e2sm"
	"github.com/6g-xsec/xsec/internal/llm"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/smo"
	"github.com/6g-xsec/xsec/internal/ue"
)

// newTrainedFramework assembles a framework with trained, deployed xApps.
func newTrainedFramework(t *testing.T) *Framework {
	t.Helper()
	fw, err := New(Options{
		Seed:         3,
		ReportPeriod: 5 * time.Millisecond,
		TrainOpts:    mobiwatch.TrainOptions{Epochs: 15, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fw.Close)

	benign, err := fw.CollectBenign(40)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Train(benign); err != nil {
		t.Fatal(err)
	}
	if err := fw.DeployXApps(); err != nil {
		t.Fatal(err)
	}
	return fw
}

func TestEndToEndDetectionAndExplanation(t *testing.T) {
	fw := newTrainedFramework(t)

	// Benign traffic must flow silently.
	u := fw.NewUE(ue.Pixel5, 100)
	u.Profile.RetransProb = 0
	if _, err := u.RunSession(fw.GNB); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	select {
	case c := <-fw.Cases():
		t.Fatalf("benign traffic produced case: %+v", c)
	default:
	}

	// Launch a BTS DoS; the pipeline must detect and explain it.
	attacker := fw.NewUE(ue.OAIUE, 101)
	attacker.Profile.RetransProb = 0
	attacker.Pace = func() { fw.Clock().Advance(500 * time.Microsecond) }
	if _, err := attacker.RunBTSDoS(fw.GNB, 8); err != nil {
		t.Fatal(err)
	}

	// The first alerts fire while the flood is still building, so the
	// LLM may initially disagree (those cases go to the human queue);
	// once the storm pattern fills the context window, detector and LLM
	// converge on the classification.
	deadline := time.After(5 * time.Second)
	total := 0
	for {
		select {
		case c := <-fw.Cases():
			total++
			if c.Analysis == nil || c.Analysis.Verdict != llm.VerdictAnomalous {
				continue // ambiguous early case → human review path
			}
			if c.Analysis.TopClass() != llm.ClassBTSDoS {
				t.Errorf("classification = %v, want BTS DoS", c.Analysis.TopClass())
			}
			if !c.Agree || c.NeedsHuman {
				t.Errorf("agreement flags: agree=%v human=%v", c.Agree, c.NeedsHuman)
			}
			if c.Control == nil || c.Control.Action != e2sm.ControlReleaseUE {
				t.Errorf("control = %+v", c.Control)
			}
			if len(c.Analysis.Remediation) == 0 || c.Analysis.Explanation == "" {
				t.Error("analysis lacks explanation/remediation")
			}
			return // success: a fully explained incident
		case <-deadline:
			st := fw.WatchStats()
			t.Fatalf("no anomalous case in %d cases (records=%d windows=%d alerts=%d)",
				total, st.RecordsSeen.Load(), st.WindowsScored.Load(), st.AlertsRaised.Load())
		}
	}
}

func TestFrameworkValidation(t *testing.T) {
	fw, err := New(Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	if err := fw.DeployXApps(); err == nil {
		t.Error("DeployXApps before Train succeeded")
	}
	// Registry is empty; Train with garbage fails.
	if err := fw.Train(nil); err == nil {
		t.Error("Train(nil) succeeded")
	}
}

// TestNewUnwindsOnError pins the error paths of New: a failure after the
// provenance ledger was installed must hand the process back the ledger
// that was active before the call, not leave the half-built framework's.
func TestNewUnwindsOnError(t *testing.T) {
	before := prov.Active()
	fw, err := New(Options{Seed: 9, MetricsAddr: "127.0.0.1:-1"})
	if err == nil {
		fw.Close()
		t.Fatal("New accepted an unusable MetricsAddr")
	}
	if prov.Active() != before {
		t.Error("failed New left its own provenance ledger active")
	}
}

// gnbCounters sums the gNB agent's xsec_gnb_* counters for node.
func gnbCounters(node string) (total float64) {
	for _, sr := range obs.Default.Snapshot() {
		if strings.HasPrefix(sr.Name, "xsec_gnb_") && sr.Kind == "counter" && sr.Labels["node"] == node {
			total += sr.Value
		}
	}
	return total
}

// TestCloseWaitsForTheAgent pins the one shutdown order's last step:
// Close returns only after the gNB agent's serve and report loops have
// exited, so the node ships and counts nothing afterwards — not even
// telemetry that was waiting in the agent when Close was called.
func TestCloseWaitsForTheAgent(t *testing.T) {
	const node = "gnb-close"
	fw, err := New(Options{
		Seed:         3,
		NodeID:       node,
		ReportPeriod: 5 * time.Millisecond,
		TrainOpts:    mobiwatch.TrainOptions{Epochs: 2, Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fw.Close()
	benign, err := fw.CollectBenign(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Train(benign); err != nil {
		t.Fatal(err)
	}
	if err := fw.DeployXApps(); err != nil {
		t.Fatal(err)
	}

	fw.GNB.InjectTelemetry(benign[:64])
	deadline := time.Now().Add(5 * time.Second)
	for fw.WatchStats().RecordsSeen.Load() < 64 {
		if time.Now().After(deadline) {
			t.Fatalf("scored %d/64 injected records", fw.WatchStats().RecordsSeen.Load())
		}
		time.Sleep(time.Millisecond)
	}
	if gnbCounters(node) == 0 {
		t.Fatalf("no xsec_gnb_* counter of %s moved while the node ran", node)
	}

	fw.GNB.InjectTelemetry(benign[:64]) // in the agent's buffer as Close starts
	fw.Close()
	closed := gnbCounters(node)
	scored := fw.WatchStats().RecordsSeen.Load()
	fw.GNB.InjectTelemetry(benign[:64])
	time.Sleep(5 * fw.Opts.ReportPeriod)
	if got := gnbCounters(node); got != closed {
		t.Errorf("xsec_gnb_* counters of %s moved after Close returned: %v -> %v", node, closed, got)
	}
	if got := fw.WatchStats().RecordsSeen.Load(); got != scored {
		t.Errorf("records scored after Close: %d -> %d", scored, got)
	}
	for open := true; open; {
		select {
		case _, open = <-fw.Cases():
		default:
			t.Fatal("case stream still open after Close returned")
		}
	}
}

func TestA1PolicyAdjustsLiveThresholds(t *testing.T) {
	fw := newTrainedFramework(t)
	aeBefore, lstmBefore := fw.Watch().Thresholds()

	if err := fw.A1.Put(smo.Policy{ID: "mobiwatch", ThresholdPercentile: 90}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		ae, lstm := fw.Watch().Thresholds()
		if ae < aeBefore && lstm < lstmBefore {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("thresholds unchanged: ae %g->%g lstm %g->%g", aeBefore, ae, lstmBefore, lstm)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestFrameworkSMOWorkflowVisible(t *testing.T) {
	fw := newTrainedFramework(t)
	// The training run published a bundle version.
	if _, v, ok := fw.Registry.Latest("mobiwatch"); !ok || v != 1 {
		t.Errorf("registry latest = v%d ok=%v", v, ok)
	}
	// The expert endpoint is live and hosts five models.
	client := llm.NewClient(fw.LLMBaseURL(), "gemini")
	models, err := client.Models(context.Background())
	if err != nil || len(models) != 5 {
		t.Errorf("models = %v err=%v", models, err)
	}
}

// The framework's own analyzer reaches the built-in expert in-process:
// verdicts stay live after the expert's listener is gone. An external
// endpoint is always reached over its URL.
func TestBuiltInExpertServedInProcess(t *testing.T) {
	fw := newTrainedFramework(t)
	if err := fw.llmShutdown(); err != nil {
		t.Fatal(err)
	}
	attacker := fw.NewUE(ue.OAIUE, 300)
	attacker.Profile.RetransProb = 0
	attacker.Pace = func() { fw.Clock().Advance(500 * time.Microsecond) }
	if _, err := attacker.RunBTSDoS(fw.GNB, 8); err != nil {
		t.Fatal(err)
	}
	select {
	case c := <-fw.Cases():
		if c.Analysis == nil || c.Analysis.Served != llm.ServedLive {
			t.Errorf("analysis = %+v, want a live verdict", c.Analysis)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no case with the listener closed")
	}

	ext, err := New(Options{LLMBaseURL: fw.LLMBaseURL()})
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	if ext.llmLocal != nil {
		t.Error("external endpoint given an in-process transport")
	}
}
