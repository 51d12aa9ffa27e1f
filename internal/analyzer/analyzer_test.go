package analyzer

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/asn1lite"
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
	c, err := a.process(context.Background(), alert, nil, nil)
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
	c, err := a.process(context.Background(), alert, nil, nil)
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
		// One flood, one review entry, carrying the count and the window.
		entry, err := decodeHumanEntry(raw)
		if err != nil || entry.Windows != 7 || len(entry.Window) != len(alert.Window) || entry.Window[0].Seq != alert.Window[0].Seq {
			t.Errorf("human-queue entry %s = %+v, %v; want windows 7 and the alert's window", key, entry, err)
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
	c, err := a.process(context.Background(), alert, nil, nil)
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
	first, err := an.process(context.Background(), mobiwatch.Alert{Window: episode, Context: episode}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := an.process(context.Background(), mobiwatch.Alert{Window: other, Context: other}, nil, nil)
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

// TestHumanQueueIsBounded escalates distinct cases until the review queue
// has aged out as many as it holds: the queue is never charged more than
// HumanQueueBytes and ends near it, every escalation is held or counted as
// aged out, and the oldest case is the one that left, so a detector and
// an expert that disagree for a day cost the RIC a fixed amount of memory.
func TestHumanQueueIsBounded(t *testing.T) {
	l := mixedTrace(t)
	a := New(benignExpert{}, sdl.New())
	window := append(mobiflow.Trace(nil), windowOf(l, ue.AttackBTSDoS)[:4]...)
	escalated := 0
	// Until as many have aged out as are held: HumanQueueLen counts the
	// namespace, so the loop reads the conservation asserted below
	// instead, held = escalated − aged out.
	for a.HumanQueueAgedOut() == 0 || 2*a.HumanQueueAgedOut() < uint64(escalated) {
		escalated++
		window[0].Seq = uint64(escalated) // the queue keys a case by node, its window's first record and model
		alert := mobiwatch.Alert{Model: mobiwatch.ModelAE, Score: 0.5, Threshold: 0.1, Window: window, At: time.Now()}
		if c, err := a.process(context.Background(), alert, nil, nil); err != nil || !c.NeedsHuman {
			t.Fatalf("case %d: err %v, case %+v; want an escalation", escalated, err, c)
		}
		if b := a.store.Bytes(humanQueueNamespace); b > HumanQueueBytes {
			t.Fatalf("after %d escalations the queue is charged %d B, its budget is %d", escalated, b, HumanQueueBytes)
		}
	}
	held, agedOut := a.HumanQueueLen(), a.HumanQueueAgedOut()
	if uint64(held)+agedOut != uint64(escalated) {
		t.Errorf("escalated %d ≠ held %d + aged out %d", escalated, held, agedOut)
	}
	if b := a.store.Bytes(humanQueueNamespace); b < HumanQueueBytes*9/10 {
		t.Errorf("the queue is charged %d B after %d escalations, want its budget %d or just under", b, escalated, HumanQueueBytes)
	}
	t.Logf("%d cases held in %d B, %d B charged per case", held, a.store.Bytes(humanQueueNamespace), a.store.Bytes(humanQueueNamespace)/int64(held))
	if _, _, ok := a.store.Get(humanQueueNamespace, fmt.Sprintf("case//%020d/%s", 1, mobiwatch.ModelAE)); ok {
		t.Error("the first case escalated is still queued")
	}
	if _, _, ok := a.store.Get(humanQueueNamespace, fmt.Sprintf("case//%020d/%s", escalated, mobiwatch.ModelAE)); !ok {
		t.Error("the newest case escalated is not queued")
	}
	if New(benignExpert{}, nil).HumanQueueAgedOut() != 0 {
		t.Error("an analyzer without a store reports aged-out cases")
	}
}

// TestHumanQueueKeepsCollidingCases escalates cases that share a first
// record number: one window from each of two gNBs, and the autoencoder's
// and the LSTM's windows starting at the same record. Each is a case of
// its own, held and read back, and none is lost uncounted.
func TestHumanQueueKeepsCollidingCases(t *testing.T) {
	l := mixedTrace(t)
	store := sdl.New()
	a := New(benignExpert{}, store)
	window := windowOf(l, ue.AttackBTSDoS)[:4]
	type shape struct {
		node  string
		model mobiwatch.ModelName
	}
	cases := []shape{{"gnb-1", mobiwatch.ModelAE}, {"gnb-2", mobiwatch.ModelAE}, {"gnb-2", mobiwatch.ModelLSTM}}
	for i, c := range cases {
		alert := mobiwatch.Alert{NodeID: c.node, Model: c.model, Score: float64(i + 1), Window: window, At: time.Now()}
		if got, err := a.process(context.Background(), alert, nil, nil); err != nil || !got.NeedsHuman {
			t.Fatalf("case %d: err %v, case %+v; want an escalation", i, err, got)
		}
	}
	if held, agedOut := a.HumanQueueLen(), a.HumanQueueAgedOut(); held != len(cases) || agedOut != 0 {
		t.Fatalf("escalated %d cases with one first record: %d held, %d aged out; want all held", len(cases), held, agedOut)
	}
	for i, c := range cases {
		key := fmt.Sprintf("case/%s/%020d/%s", c.node, window[0].Seq, c.model)
		raw, _, ok := store.Get(humanQueueNamespace, key)
		if !ok {
			t.Fatalf("case %d not under %s", i, key)
		}
		entry, err := decodeHumanEntry(raw)
		if err != nil || entry.Model != string(c.model) || entry.Score != float64(i+1) || !slices.EqualFunc(entry.Window, window, func(a, b mobiflow.Record) bool {
			return a.Seq == b.Seq && a.Msg == b.Msg && a.UEID == b.UEID && a.RNTI == b.RNTI && a.Timestamp.Equal(b.Timestamp)
		}) {
			t.Errorf("case %d reads back as %+v, %v", i, entry, err)
		}
	}
}

// TestHumanQueueKeyLayout pins the hand-built review key to the
// documented case/<node>/<first seq %020d>/<model> layout, up to a
// sequence number of twenty digits.
func TestHumanQueueKeyLayout(t *testing.T) {
	store := sdl.New()
	a := New(benignExpert{}, store)
	for _, seq := range []uint64{0, 42, math.MaxUint64} {
		c := &Case{Alert: mobiwatch.Alert{NodeID: "gnb/7", Model: mobiwatch.ModelLSTM, Window: mobiflow.Trace{{Seq: seq}}}}
		a.enqueueHuman(c, "review")
		key := fmt.Sprintf("case/%s/%020d/%s", "gnb/7", seq, mobiwatch.ModelLSTM)
		if _, _, ok := store.Get(humanQueueNamespace, key); !ok {
			t.Errorf("no entry under %s; held: %v", key, store.Keys(humanQueueNamespace, ""))
		}
	}
}

// decodeHumanEntry reads a stored humanQueueEntry back; At reads in UTC.
func decodeHumanEntry(data []byte) (h humanQueueEntry, err error) {
	d := asn1lite.NewDecoder(data)
	for err == nil && d.Next() {
		switch d.Tag() {
		case tagReason:
			h.Reason = string(d.RawValue())
		case tagModel:
			h.Model = string(d.RawValue())
		case tagScore:
			h.Score, err = d.Float()
		case tagWindows:
			h.Windows, err = d.Uint()
		case tagAt:
			var ns int64
			ns, err = d.Int()
			h.At = time.Unix(0, ns).UTC()
		case tagWindow:
			h.Window, err = mobiflow.DecodeTraceInto(nil, d.RawValue())
		}
	}
	return h, cmp.Or(err, d.Err())
}
