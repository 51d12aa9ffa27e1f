package analyzer

import (
	"context"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/e2sm"
	"github.com/6g-xsec/xsec/internal/llm"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/nas"
	"github.com/6g-xsec/xsec/internal/rrc"
	"github.com/6g-xsec/xsec/internal/sdl"
	"github.com/6g-xsec/xsec/internal/ue"
)

func mixedTrace(t *testing.T) *dataset.Labeled {
	t.Helper()
	l, err := dataset.GenerateMixed(dataset.MixedConfig{
		BenignConfig:       dataset.BenignConfig{Fleet: 8, Seed: 51},
		InstancesPerAttack: 1,
		BenignBetween:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func windowOf(l *dataset.Labeled, kind ue.AttackKind) mobiflow.Trace {
	var w mobiflow.Trace
	for i, r := range l.Trace {
		if l.AttackOf[i] == int(kind) {
			w = append(w, r)
		}
	}
	return w
}

func startExpert(t *testing.T) string {
	t.Helper()
	srv := llm.NewServer()
	addr, shutdown, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown() })
	return "http://" + addr
}

func TestProcessAgreement(t *testing.T) {
	l := mixedTrace(t)
	base := startExpert(t)
	store := sdl.New()
	a := New(llm.NewClient(base, "chatgpt-4o"), store)

	alert := mobiwatch.Alert{
		NodeID: "gnb-001", Model: mobiwatch.ModelAE, Score: 0.5, Threshold: 0.1,
		Window: windowOf(l, ue.AttackBTSDoS), At: time.Now(),
	}
	c, err := a.Process(context.Background(), alert)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Agree || c.NeedsHuman {
		t.Errorf("case = agree=%v needsHuman=%v", c.Agree, c.NeedsHuman)
	}
	if c.Analysis == nil || c.Analysis.Verdict != llm.VerdictAnomalous {
		t.Fatalf("analysis = %+v", c.Analysis)
	}
	if c.Control == nil || c.Control.Action != e2sm.ControlReleaseUE {
		t.Errorf("control = %+v, want release-ue", c.Control)
	}
	if a.Stats().Agreements.Load() != 1 {
		t.Error("agreement not counted")
	}
	if a.HumanQueueLen() != 0 {
		t.Error("agreement enqueued for human review")
	}
}

func TestProcessDisagreementGoesToHumans(t *testing.T) {
	l := mixedTrace(t)
	base := startExpert(t)
	store := sdl.New()
	// Claude misses BTS DoS (Table 3): it will call the window benign.
	a := New(llm.NewClient(base, "claude-3-sonnet"), store)

	alert := mobiwatch.Alert{
		Model: mobiwatch.ModelAE, Score: 0.5, Threshold: 0.1,
		Window: windowOf(l, ue.AttackBTSDoS), At: time.Now(),
		Folded: 6, // the strongest of a flood's seven flagged windows
	}
	c, err := a.Process(context.Background(), alert)
	if err != nil {
		t.Fatal(err)
	}
	if c.Agree {
		t.Fatal("expected disagreement")
	}
	if !c.NeedsHuman {
		t.Error("disagreement not routed to humans")
	}
	if c.Control != nil {
		t.Error("control recommended despite disagreement")
	}
	if a.HumanQueueLen() != 1 {
		t.Errorf("human queue = %d", a.HumanQueueLen())
	}
	for key, raw := range store.GetAll("analyzer/human-queue", "case/") {
		// One flood, one review entry, carrying the count.
		if !strings.Contains(string(raw), `"windows":7`) {
			t.Errorf("human-queue entry %s = %s, want windows 7", key, raw)
		}
	}
	if a.Stats().Disagrees.Load() != 1 {
		t.Error("disagreement not counted")
	}
}

func TestProcessLLMFailure(t *testing.T) {
	l := mixedTrace(t)
	store := sdl.New()
	// Unreachable endpoint.
	a := New(llm.NewClient("http://127.0.0.1:1", "chatgpt-4o"), store)
	alert := mobiwatch.Alert{
		Model: mobiwatch.ModelAE, Window: windowOf(l, ue.AttackBTSDoS), At: time.Now(),
	}
	c, err := a.Process(context.Background(), alert)
	if err != nil {
		t.Fatal(err)
	}
	if !c.NeedsHuman || c.Analysis != nil {
		t.Errorf("case = %+v", c)
	}
	if a.Stats().Failures.Load() != 1 {
		t.Error("failure not counted")
	}
	if a.HumanQueueLen() != 1 {
		t.Error("failure not enqueued")
	}
}

func TestRunChannelPipeline(t *testing.T) {
	l := mixedTrace(t)
	base := startExpert(t)
	a := New(llm.NewClient(base, "chatgpt-4o"), sdl.New())

	alerts := sourceOf(
		mobiwatch.Alert{Model: mobiwatch.ModelAE, Window: windowOf(l, ue.AttackNullCipher), At: time.Now()},
		mobiwatch.Alert{Model: mobiwatch.ModelLSTM, Window: windowOf(l, ue.AttackBlindDoS), At: time.Now()})

	var cases []*Case
	for c := range a.RunPool(context.Background(), alerts, PoolOptions{Workers: 1}) {
		cases = append(cases, c)
	}
	if len(cases) != 2 {
		t.Fatalf("cases = %d", len(cases))
	}
	if cases[0].Analysis.TopClass() != llm.ClassNullCipher {
		t.Errorf("case 0 class = %v", cases[0].Analysis.TopClass())
	}
	if cases[0].Control == nil || cases[0].Control.Action != e2sm.ControlRequireStrongSecurity {
		t.Errorf("case 0 control = %+v", cases[0].Control)
	}
	if cases[1].Control == nil || cases[1].Control.Action != e2sm.ControlBlockTMSI {
		t.Errorf("case 1 control = %+v", cases[1].Control)
	}
}

func TestRecommendControl(t *testing.T) {
	if RecommendControl(nil, nil) != nil {
		t.Error("nil analysis produced control")
	}
	benign := &llm.Analysis{Verdict: llm.VerdictBenign}
	if RecommendControl(benign, nil) != nil {
		t.Error("benign verdict produced control")
	}
	// Identity extraction: informational only.
	idx := &llm.Analysis{Verdict: llm.VerdictAnomalous,
		Hypotheses: []llm.Hypothesis{{Class: llm.ClassUplinkIDExtraction}}}
	if RecommendControl(idx, mobiflow.Trace{{UEID: 1}}) != nil {
		t.Error("identity extraction produced automated control")
	}
	// Blind DoS picks the dominant TMSI.
	blind := &llm.Analysis{Verdict: llm.VerdictAnomalous,
		Hypotheses: []llm.Hypothesis{{Class: llm.ClassBlindDoS}}}
	w := mobiflow.Trace{{TMSI: 5}, {TMSI: 5}, {TMSI: 9}}
	ctrl := RecommendControl(blind, w)
	if ctrl == nil || ctrl.TMSI != cell.TMSI(5) {
		t.Errorf("control = %+v", ctrl)
	}
}

// TestSharedVerdictActsOnItsOwnWindow: the serving layer hands one
// analysis to every UE showing the same pattern, and the analysis names
// identifiers by per-prompt alias, so the control's target has to come
// from the window of the case at hand and from nothing in the analysis.
func TestSharedVerdictActsOnItsOwnWindow(t *testing.T) {
	l := mixedTrace(t)
	svc := llm.NewService(llm.NewClient(startExpert(t), "chatgpt-4o"), llm.ServingOptions{})
	defer svc.Close()
	an := New(svc, nil)

	episode := windowOf(l, ue.AttackBlindDoS)
	other := slices.Clone(episode)
	for i := range other {
		other[i].UEID += 1000
		other[i].RNTI += 0x100
		other[i].TMSI ^= 0x5A5A5A5A
	}
	first, err := an.Process(context.Background(), mobiwatch.Alert{Window: episode, Context: episode})
	if err != nil {
		t.Fatal(err)
	}
	second, err := an.Process(context.Background(), mobiwatch.Alert{Window: other, Context: other})
	if err != nil {
		t.Fatal(err)
	}
	if second.Analysis.Served != llm.ServedCache {
		t.Fatalf("the second UE's verdict was served %q, want the first's from the cache", second.Analysis.Served)
	}
	if first.Control == nil || second.Control == nil || first.Control.Action != e2sm.ControlBlockTMSI {
		t.Fatalf("controls = %+v, %+v", first.Control, second.Control)
	}
	if first.Control.TMSI != episode[0].TMSI || second.Control.TMSI != other[0].TMSI {
		t.Errorf("blocked %v and %v, want each case's own TMSI %v and %v",
			first.Control.TMSI, second.Control.TMSI, episode[0].TMSI, other[0].TMSI)
	}
	if legend := llm.Legend(other); strings.Contains(second.Analysis.Explanation, other[0].TMSI.String()) ||
		!strings.Contains(second.Analysis.Explanation, legend[1].Alias) {
		t.Errorf("explanation %q: want the replayed TMSI by its alias %v", second.Analysis.Explanation, legend[1])
	}
}

func TestBTSDoSReleaseTargetsOffenderNotBystander(t *testing.T) {
	storm := &llm.Analysis{Verdict: llm.VerdictAnomalous,
		Hypotheses: []llm.Hypothesis{{Class: llm.ClassBTSDoS}}}

	// A signaling-storm window: fabricated contexts 10 and 11 each fire
	// an abandoned setup+registration, while benign UE 7 — whose records
	// happen to come last — completes its attach (security activated).
	window := mobiflow.Trace{
		{UEID: 10, Msg: "RRCSetupRequest", RRCState: rrc.StateSetupRequested},
		{UEID: 11, Msg: "RRCSetupRequest", RRCState: rrc.StateSetupRequested},
		{UEID: 10, Msg: "RegistrationRequest", NASState: nas.StateRegInitiated},
		{UEID: 11, Msg: "RegistrationRequest", NASState: nas.StateRegInitiated},
		{UEID: 7, Msg: "RRCSetupRequest", RRCState: rrc.StateSetupRequested},
		{UEID: 7, Msg: "RegistrationRequest", NASState: nas.StateRegInitiated},
		{UEID: 7, Msg: "NASSecurityModeComplete", SecurityOn: true, NASState: nas.StateSecured},
		{UEID: 7, Msg: "RRCSecurityModeComplete", SecurityOn: true, RRCState: rrc.StateSecurityActivated},
	}
	ctrl := RecommendControl(storm, window)
	if ctrl == nil || ctrl.Action != e2sm.ControlReleaseUE {
		t.Fatalf("control = %+v", ctrl)
	}
	if ctrl.UEID == 7 {
		t.Fatal("benign trailing UE selected for release")
	}
	// Ties between offenders break toward the most recent one.
	if ctrl.UEID != 11 {
		t.Errorf("release target = %d, want most recent offender 11", ctrl.UEID)
	}

	// A window where every context completed yields no release at all.
	done := mobiflow.Trace{
		{UEID: 7, Msg: "RRCSetupRequest", RRCState: rrc.StateSetupRequested},
		{UEID: 7, Msg: "RRCSecurityModeComplete", SecurityOn: true, RRCState: rrc.StateSecurityActivated},
	}
	if got := RecommendControl(storm, done); got != nil {
		t.Errorf("all-complete window produced control %+v", got)
	}
}

// benignExpert contradicts every alert it is shown.
type benignExpert struct{}

func (benignExpert) AnalyzeWindow(context.Context, mobiflow.Trace) (*llm.Analysis, error) {
	return &llm.Analysis{Verdict: llm.VerdictBenign, Confidence: 0.9}, nil
}

// TestHumanQueueIsBounded escalates twice HumanQueueCap distinct cases:
// the review queue holds the newest cap of them and counts the rest as
// aged out, so a detector and an expert that disagree for a day cost the
// RIC a fixed amount of memory.
func TestHumanQueueIsBounded(t *testing.T) {
	l := mixedTrace(t)
	a := New(benignExpert{}, sdl.New())
	window := append(mobiflow.Trace(nil), windowOf(l, ue.AttackBTSDoS)[:4]...)
	for i := 1; i <= 2*HumanQueueCap; i++ {
		window[0].Seq = uint64(i) // the queue keys a case by its window's first record
		alert := mobiwatch.Alert{Model: mobiwatch.ModelAE, Score: 0.5, Threshold: 0.1, Window: window, At: time.Now()}
		if c, err := a.Process(context.Background(), alert); err != nil || !c.NeedsHuman {
			t.Fatalf("case %d: err %v, case %+v; want an escalation", i, err, c)
		}
	}
	if got := a.HumanQueueLen(); got != HumanQueueCap {
		t.Errorf("human queue holds %d cases after %d escalations, want the cap %d", got, 2*HumanQueueCap, HumanQueueCap)
	}
	if got := a.HumanQueueAgedOut(); got != HumanQueueCap {
		t.Errorf("%d cases aged out, want %d", got, HumanQueueCap)
	}
	if New(benignExpert{}, nil).HumanQueueAgedOut() != 0 {
		t.Error("an analyzer without a store reports aged-out cases")
	}
}
