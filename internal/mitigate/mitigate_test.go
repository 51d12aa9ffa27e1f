package mitigate

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/analyzer"
	"github.com/6g-xsec/xsec/internal/asn1lite"
	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/e2sm"
	"github.com/6g-xsec/xsec/internal/llm"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/sdl"
	"github.com/6g-xsec/xsec/internal/smo"
)

// fakeIssuer records decoded control requests; the first failFirst calls
// return an error.
type fakeIssuer struct {
	mu        sync.Mutex
	calls     []e2sm.ControlRequest
	failFirst int
}

func (f *fakeIssuer) ControlContext(ctx context.Context, nodeID string, fn uint16, hdr, msg []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	var req e2sm.ControlRequest
	if err := asn1lite.Unmarshal(msg, &req); err != nil {
		return err
	}
	f.calls = append(f.calls, req)
	if f.failFirst > 0 {
		f.failFirst--
		return errors.New("simulated control failure")
	}
	return nil
}

func (f *fakeIssuer) snapshot() []e2sm.ControlRequest {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]e2sm.ControlRequest(nil), f.calls...)
}

func caseFor(class llm.AttackClass, req *e2sm.ControlRequest) *analyzer.Case {
	return &analyzer.Case{
		Alert: mobiwatch.Alert{
			NodeID: "gnb-test",
			Window: mobiflow.Trace{{Seq: 1, Msg: "RRCSetupRequest"}, {Seq: 2, Msg: "RegistrationRequest"}},
		},
		Analysis: &llm.Analysis{
			Verdict:    llm.VerdictAnomalous,
			Hypotheses: []llm.Hypothesis{{Class: class, Likelihood: 0.9}},
		},
		Agree:       true,
		Control:     req,
		ProcessedAt: time.Now(),
	}
}

func blockCase(tmsi cell.TMSI) *analyzer.Case {
	return caseFor(llm.ClassBlindDoS, &e2sm.ControlRequest{
		Action: e2sm.ControlBlockTMSI, TMSI: tmsi, Reason: "test",
	})
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func entryByID(store *sdl.Store, id uint64) (Entry, bool) {
	for _, en := range Entries(store) {
		if en.ID == id {
			return en, true
		}
	}
	return Entry{}, false
}

func TestDryRunIssuesNothingButJournalsEverything(t *testing.T) {
	iss := &fakeIssuer{}
	store := sdl.New()
	e := New(Config{NodeID: "gnb-test", Issuer: iss, Store: store, Mode: ModeDryRun})
	defer e.Close()

	en := e.Submit(blockCase(5))
	if en == nil || en.Decision != "dry-run" {
		t.Fatalf("entry = %+v", en)
	}
	e.Quiesce()
	if n := len(iss.snapshot()); n != 0 {
		t.Fatalf("dry-run issued %d controls", n)
	}
	got, ok := entryByID(store, en.ID)
	if !ok {
		t.Fatal("proposal not journaled")
	}
	if got.Action != "block-tmsi" || got.Verdict != "ANOMALOUS" || got.Class != llm.ClassBlindDoS.String() {
		t.Errorf("journal entry = %+v", got)
	}
	if got.Digest == "" {
		t.Error("window digest missing")
	}
	if got.State != StateApproved.String() {
		t.Errorf("state = %s", got.State)
	}
}

func TestEnforceLifecycleWithTTLRollback(t *testing.T) {
	iss := &fakeIssuer{}
	store := sdl.New()
	e := New(Config{
		NodeID: "gnb-test", Issuer: iss, Store: store, Mode: ModeEnforce,
		TTL: 30 * time.Millisecond, Cooldown: time.Hour,
	})
	defer e.Close()

	en := e.Submit(blockCase(0xBEEF))
	if en == nil || en.Decision != "approved" {
		t.Fatalf("entry = %+v", en)
	}
	waitFor(t, "active mitigation", func() bool { return e.ActiveCount() == 1 })
	waitFor(t, "rollback", func() bool {
		got, ok := entryByID(store, en.ID)
		return ok && got.State == StateRolledBack.String()
	})
	if e.ActiveCount() != 0 {
		t.Errorf("active = %d after rollback", e.ActiveCount())
	}

	calls := iss.snapshot()
	if len(calls) != 2 {
		t.Fatalf("calls = %+v", calls)
	}
	if calls[0].Action != e2sm.ControlBlockTMSI || calls[1].Action != e2sm.ControlUnblockTMSI {
		t.Errorf("action sequence = %v, %v", calls[0].Action, calls[1].Action)
	}
	if calls[1].TMSI != 0xBEEF {
		t.Errorf("rollback targeted TMSI %d", calls[1].TMSI)
	}

	// The journal holds the full lifecycle.
	got, _ := entryByID(store, en.ID)
	var seq []string
	for _, tr := range got.History {
		seq = append(seq, tr.State)
	}
	want := []string{"proposed", "approved", "issued", "acked", "active", "expired", "rolled-back"}
	if strings.Join(seq, ",") != strings.Join(want, ",") {
		t.Errorf("lifecycle = %v, want %v", seq, want)
	}
}

func TestOneShotActionCompletesAtAck(t *testing.T) {
	iss := &fakeIssuer{}
	store := sdl.New()
	e := New(Config{NodeID: "gnb-test", Issuer: iss, Store: store, Mode: ModeEnforce})
	defer e.Close()

	en := e.Submit(caseFor(llm.ClassBTSDoS, &e2sm.ControlRequest{
		Action: e2sm.ControlReleaseUE, UEID: 42,
	}))
	waitFor(t, "one-shot completion", func() bool {
		got, ok := entryByID(store, en.ID)
		return ok && got.State == StateExpired.String()
	})
	e.Quiesce()
	if e.ActiveCount() != 0 {
		t.Error("one-shot action counted as active")
	}
	if n := len(iss.snapshot()); n != 1 {
		t.Errorf("calls = %d, want 1 (no rollback for release-ue)", n)
	}
}

func TestGovernorSuppressions(t *testing.T) {
	t.Run("mode-off", func(t *testing.T) {
		e := New(Config{Issuer: &fakeIssuer{}, Store: sdl.New(), Mode: ModeOff})
		defer e.Close()
		if en := e.Submit(blockCase(1)); en.Decision != "suppressed:mode-off" {
			t.Errorf("decision = %s", en.Decision)
		}
	})
	t.Run("policy-denied", func(t *testing.T) {
		e := New(Config{Issuer: &fakeIssuer{}, Store: sdl.New(), Mode: ModeEnforce})
		defer e.Close()
		e.ApplyPolicy(smo.Policy{ID: "p1", DenyActions: []string{"block-tmsi"}})
		if en := e.Submit(blockCase(1)); en.Decision != "suppressed:policy-denied" {
			t.Errorf("decision = %s", en.Decision)
		}
	})
	t.Run("duplicate", func(t *testing.T) {
		e := New(Config{Issuer: &fakeIssuer{}, Store: sdl.New(), Mode: ModeEnforce, TTL: time.Hour})
		defer e.Close()
		if en := e.Submit(blockCase(7)); en.Decision != "approved" {
			t.Fatalf("first decision = %s", en.Decision)
		}
		if en := e.Submit(blockCase(7)); en.Decision != "suppressed:duplicate" {
			t.Errorf("second decision = %s", en.Decision)
		}
		// A different target is unaffected by the dedup slot.
		if en := e.Submit(blockCase(8)); en.Decision != "approved" {
			t.Errorf("other-target decision = %s", en.Decision)
		}
	})
	t.Run("cooldown", func(t *testing.T) {
		store := sdl.New()
		e := New(Config{
			Issuer: &fakeIssuer{}, Store: store, Mode: ModeEnforce,
			TTL: 10 * time.Millisecond, Cooldown: time.Hour,
		})
		defer e.Close()
		en := e.Submit(blockCase(9))
		waitFor(t, "rollback", func() bool {
			got, ok := entryByID(store, en.ID)
			return ok && got.State == StateRolledBack.String()
		})
		if en2 := e.Submit(blockCase(9)); en2.Decision != "suppressed:cooldown" {
			t.Errorf("decision = %s", en2.Decision)
		}
	})
	t.Run("rate-limited", func(t *testing.T) {
		e := New(Config{
			Issuer: &fakeIssuer{}, Store: sdl.New(), Mode: ModeEnforce,
			Rate: 1e-9, Burst: 1, TTL: time.Hour,
		})
		defer e.Close()
		if en := e.Submit(blockCase(20)); en.Decision != "approved" {
			t.Fatalf("first decision = %s", en.Decision)
		}
		if en := e.Submit(blockCase(21)); en.Decision != "suppressed:rate-limited" {
			t.Errorf("second decision = %s", en.Decision)
		}
	})
}

func TestRetryThenAck(t *testing.T) {
	iss := &fakeIssuer{failFirst: 1}
	store := sdl.New()
	e := New(Config{
		NodeID: "gnb-test", Issuer: iss, Store: store, Mode: ModeEnforce,
		TTL: time.Hour, MaxRetries: 2, RetryBackoff: time.Millisecond,
	})
	defer e.Close()

	en := e.Submit(blockCase(30))
	waitFor(t, "ack after retry", func() bool {
		got, ok := entryByID(store, en.ID)
		return ok && got.State == StateActive.String()
	})
	if n := len(iss.snapshot()); n != 2 {
		t.Errorf("attempts = %d, want 2", n)
	}
	got, _ := entryByID(store, en.ID)
	var retried bool
	for _, tr := range got.History {
		if strings.HasPrefix(tr.Note, "retry") {
			retried = true
		}
	}
	if !retried {
		t.Error("retry not journaled")
	}
}

func TestExhaustedRetriesFail(t *testing.T) {
	iss := &fakeIssuer{failFirst: 100}
	store := sdl.New()
	e := New(Config{
		NodeID: "gnb-test", Issuer: iss, Store: store, Mode: ModeEnforce,
		MaxRetries: 1, RetryBackoff: time.Millisecond, TTL: time.Hour,
	})
	defer e.Close()

	en := e.Submit(blockCase(31))
	waitFor(t, "terminal failure", func() bool {
		got, ok := entryByID(store, en.ID)
		return ok && got.State == StateFailed.String()
	})
	e.Quiesce()
	// The dedup slot is released so a later retry can be proposed.
	if en2 := e.Submit(blockCase(31)); en2.Decision != "approved" {
		t.Errorf("post-failure decision = %s", en2.Decision)
	}
}

func TestApplyPolicyUpdatesModeDenyTTL(t *testing.T) {
	e := New(Config{Issuer: &fakeIssuer{}, Store: sdl.New(), Mode: ModeOff})
	defer e.Close()

	e.ApplyPolicy(smo.Policy{ID: "p", MitigationMode: "enforce",
		DenyActions: []string{"release-ue"}, MitigationTTLMS: 1234})
	if e.Mode() != ModeEnforce {
		t.Errorf("mode = %v", e.Mode())
	}
	e.mu.Lock()
	ttl, denied := e.ttl, e.deny["release-ue"]
	e.mu.Unlock()
	if ttl != 1234*time.Millisecond {
		t.Errorf("ttl = %v", ttl)
	}
	if !denied {
		t.Error("deny list not applied")
	}

	// Invalid mode is ignored; a non-nil empty deny list clears it.
	e.ApplyPolicy(smo.Policy{ID: "p", MitigationMode: "bogus", DenyActions: []string{}})
	if e.Mode() != ModeEnforce {
		t.Errorf("mode after bogus policy = %v", e.Mode())
	}
	e.mu.Lock()
	denyLen := len(e.deny)
	e.mu.Unlock()
	if denyLen != 0 {
		t.Error("deny list not cleared")
	}
}

func TestParseMode(t *testing.T) {
	for s, want := range map[string]Mode{
		"off": ModeOff, "": ModeOff, "dry-run": ModeDryRun,
		"DryRun": ModeDryRun, "enforce": ModeEnforce, "ENFORCE": ModeEnforce,
	} {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseMode("yolo"); err == nil {
		t.Error("invalid mode accepted")
	}
	for _, m := range []Mode{ModeOff, ModeDryRun, ModeEnforce} {
		back, err := ParseMode(m.String())
		if err != nil || back != m {
			t.Errorf("round trip %v failed", m)
		}
	}
}

func TestTargetKeys(t *testing.T) {
	cases := []struct {
		req  e2sm.ControlRequest
		want string
	}{
		{e2sm.ControlRequest{Action: e2sm.ControlBlockTMSI, TMSI: 5}, "tmsi/5"},
		{e2sm.ControlRequest{Action: e2sm.ControlUnblockTMSI, TMSI: 5}, "tmsi/5"},
		{e2sm.ControlRequest{Action: e2sm.ControlReleaseUE, UEID: 9}, "ue/9"},
		{e2sm.ControlRequest{Action: e2sm.ControlRequireStrongSecurity}, "node"},
	}
	for _, c := range cases {
		if got := targetKey(&c.req); got != c.want {
			t.Errorf("targetKey(%v) = %q, want %q", c.req.Action, got, c.want)
		}
	}
}

func TestSubmitNilAndNoControl(t *testing.T) {
	e := New(Config{Issuer: &fakeIssuer{}, Mode: ModeEnforce})
	defer e.Close()
	if e.Submit(nil) != nil {
		t.Error("nil case produced entry")
	}
	if e.Submit(&analyzer.Case{}) != nil {
		t.Error("control-less case produced entry")
	}
}

func TestWindowDigestStable(t *testing.T) {
	w := mobiflow.Trace{{Seq: 3, Msg: "A"}, {Seq: 4, Msg: "B"}}
	d1, d2 := windowDigest(w), windowDigest(w)
	if d1 == "" || d1 != d2 {
		t.Errorf("digest unstable: %q vs %q", d1, d2)
	}
	if windowDigest(nil) != "" {
		t.Error("empty window produced digest")
	}
	if want := fmt.Sprintf("seq[3..4]n2"); !strings.HasPrefix(d1, want) {
		t.Errorf("digest = %q", d1)
	}
}

// TestEntryChainJoinsProvenance: every journaled action carries the
// "node/sn" chain ID of the indication that triggered it, and the
// lifecycle transitions land in the provenance ledger under that chain.
func TestEntryChainJoinsProvenance(t *testing.T) {
	ledger := prov.New(prov.Options{})
	old := prov.SetActive(ledger)
	defer func() { prov.SetActive(old).Close() }()

	iss := &fakeIssuer{}
	store := sdl.New()
	e := New(Config{NodeID: "gnb-test", Issuer: iss, Store: store, Mode: ModeEnforce})
	defer e.Close()

	c := blockCase(0xF00D)
	c.Alert.IndicationSN = 42
	en := e.Submit(c)
	if en == nil {
		t.Fatal("submit rejected")
	}
	if en.Chain != "gnb-test/42" {
		t.Fatalf("Entry.Chain = %q, want gnb-test/42", en.Chain)
	}
	waitFor(t, "issue", func() bool {
		got, ok := entryByID(store, en.ID)
		return ok && got.State != StateProposed.String() && got.State != StateApproved.String()
	})
	e.Quiesce()
	ledger.Flush()

	rec, ok := ledger.Chain(prov.ChainID{Node: "gnb-test", SN: 42})
	if !ok {
		t.Fatal("no provenance chain for the action")
	}
	states := map[string]bool{}
	for _, ev := range rec.Events {
		if ev.Kind != prov.KindMitigation {
			t.Fatalf("unexpected event kind %v", ev.Kind)
		}
		if ev.ActionID != en.ID || ev.Action != "block-tmsi" {
			t.Fatalf("mitigation event = %+v", ev)
		}
		states[ev.Label] = true
	}
	for _, want := range []string{"proposed", "approved", "issued"} {
		if !states[want] {
			t.Fatalf("lifecycle state %q missing from ledger (have %v)", want, states)
		}
	}

	// Offline replays (no originating indication) journal without a chain
	// and record nothing.
	offline := blockCase(0xCAFE)
	offline.Alert.NodeID = ""
	en2 := e.Submit(offline)
	if en2 == nil {
		t.Fatal("offline submit rejected")
	}
	if en2.Chain != "" {
		t.Fatalf("offline Entry.Chain = %q, want empty", en2.Chain)
	}
}

// TestTerminalActionsAndLapsedCooldownsAreForgotten pins the engine's
// memory to what is live: an action leaves the map when its lifecycle
// ends (the SDL journal keeps the record), and a cooldown when it lapses.
func TestTerminalActionsAndLapsedCooldownsAreForgotten(t *testing.T) {
	var clockMu sync.Mutex
	now := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		now = now.Add(d)
		clockMu.Unlock()
	}
	iss := &fakeIssuer{}
	store := sdl.New()
	e := New(Config{
		NodeID: "gnb-test", Issuer: iss, Store: store, Mode: ModeEnforce,
		Cooldown: time.Second, Rate: 1, Burst: 1, Clock: clock,
	})
	defer e.Close()
	held := func() (actions, cooldowns int) {
		e.mu.Lock()
		defer e.mu.Unlock()
		return len(e.actions), len(e.cooldown)
	}

	// One one-shot release runs to completion and leaves a cooldown.
	release := caseFor(llm.ClassBTSDoS, &e2sm.ControlRequest{Action: e2sm.ControlReleaseUE, UEID: 7, Reason: "test"})
	if en := e.Submit(release); en == nil || en.Decision != "approved" {
		t.Fatalf("release entry = %+v", en)
	}
	e.Quiesce()
	if a, c := held(); a != 0 || c != 1 {
		t.Fatalf("after an expired one-shot: %d actions, %d cooldowns held; want 0 and 1", a, c)
	}

	// A thousand proposals the governor suppresses (the bucket is empty
	// and the clock stands still), each against its own target.
	for i := 0; i < 1000; i++ {
		en := e.Submit(blockCase(cell.TMSI(100 + i)))
		if en == nil || !strings.HasPrefix(en.Decision, "suppressed:") {
			t.Fatalf("proposal %d: entry = %+v", i, en)
		}
	}
	if a, _ := held(); a != 0 {
		t.Errorf("%d actions held after 1000 suppressed proposals and one expired one-shot, want 0", a)
	}
	if n := len(Entries(store)); n != 1001 {
		t.Errorf("journal holds %d entries, want all 1001", n)
	}

	// Past the cooldown, the next trip through the refill path prunes it.
	advance(2 * time.Second)
	e.Submit(blockCase(5000))
	e.Quiesce()
	e.mu.Lock()
	_, lapsed := e.cooldown["ue/7"]
	e.mu.Unlock()
	if lapsed {
		t.Error("lapsed cooldown of ue/7 still held")
	}
}
