package core

import (
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/mitigate"
	"github.com/6g-xsec/xsec/internal/smo"
	"github.com/6g-xsec/xsec/internal/ue"
)

// newMitigatingFramework deploys the full stack with the mitigation
// engine in the given mode.
func newMitigatingFramework(t *testing.T, mode string, ttl time.Duration) *Framework {
	t.Helper()
	opts := trainedOptions
	opts.Mitigate, opts.MitigateTTL = mode, ttl
	fw, _ := newDeployed(t, opts)
	// The case stream is informational here; drain it.
	go func() {
		for range fw.Cases() {
		}
	}()
	return fw
}

// TestMitigationEnforceEndToEnd exercises the full closed loop against
// the real gNB: blind-DoS telemetry → detector alert → LLM verdict →
// governor approval → E2 block-tmsi control → gNB ack (the TMSI is
// actually denied service) → TTL expiry → unblock-tmsi rollback; then a
// BTS-DoS flood → acked release-ue → attacker contexts actually freed.
func TestMitigationEnforceEndToEnd(t *testing.T) {
	fw := newMitigatingFramework(t, "enforce", 400*time.Millisecond)

	victim := fw.NewUE(ue.Pixel5, 300)
	vres, err := victim.RunSession(fw.GNB)
	if err != nil {
		t.Fatal(err)
	}
	attacker := fw.NewUE(ue.OAIUE, 301)
	attacker.Pace = func() { fw.Clock().Advance(500 * time.Microsecond) }
	// The replay flood may be cut short by the mitigation itself.
	_, _ = attacker.RunBlindDoS(fw.GNB, vres.GUTI.TMSI, 6)

	waitJournal := func(what string, cond func([]mitigate.Entry) bool) {
		t.Helper()
		deadline := time.Now().Add(8 * time.Second)
		for !cond(mitigate.Entries(fw.SDL)) {
			if time.Now().After(deadline) {
				st := fw.WatchStats()
				t.Fatalf("timed out waiting for %s (windows=%d alerts=%d journal=%+v)",
					what, st.WindowsScored.Load(), st.AlertsRaised.Load(), mitigate.Entries(fw.SDL))
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// The engine must ack a block-tmsi and enforce it on the gNB.
	waitJournal("active mitigation", func(entries []mitigate.Entry) bool {
		for _, en := range entries {
			if en.Action == "block-tmsi" && en.State == mitigate.StateActive.String() {
				return true
			}
		}
		return false
	})
	if n := fw.GNB.BlockedTMSIs(); n != 1 {
		t.Errorf("BlockedTMSIs = %d while mitigation active", n)
	}

	// TTL expiry must roll the block back on the real gNB.
	waitJournal("ttl rollback", func(entries []mitigate.Entry) bool {
		for _, en := range entries {
			if en.Action == "block-tmsi" && en.State == mitigate.StateRolledBack.String() {
				return true
			}
		}
		return false
	})
	if n := fw.GNB.BlockedTMSIs(); n != 0 {
		t.Errorf("BlockedTMSIs = %d after rollback", n)
	}
	if n := fw.Mitigator().ActiveCount(); n != 0 {
		t.Errorf("ActiveCount = %d after rollback", n)
	}

	// A one-shot action closes the loop too: the engine must get a
	// release-ue acked for a BTS-DoS flood, and the release must free
	// attacker contexts on the gNB.
	const flood = 8
	idle := fw.GNB.ActiveUEs()
	flooder := fw.NewUE(ue.OAIUE, 302)
	flooder.Profile.RetransProb = 0
	flooder.Pace = func() { fw.Clock().Advance(500 * time.Microsecond) }
	if _, err := flooder.RunBTSDoS(fw.GNB, flood); err != nil {
		t.Fatal(err)
	}
	waitJournal("acked release-ue", func(entries []mitigate.Entry) bool {
		for _, en := range entries {
			if en.Action == "release-ue" && en.Acked() {
				return true
			}
		}
		return false
	})
	if n := fw.GNB.ActiveUEs(); n >= idle+flood {
		t.Errorf("ActiveUEs = %d after an acked release (idle %d + flood %d)", n, idle, flood)
	}
}

// TestMitigationDryRunIssuesNoControls proves dry-run journals proposals
// without touching the RAN.
func TestMitigationDryRunIssuesNoControls(t *testing.T) {
	fw := newMitigatingFramework(t, "dry-run", 0)
	controlsBefore := fw.RIC.Metrics().ControlsOK.Load()

	attacker := fw.NewUE(ue.OAIUE, 310)
	attacker.Profile.RetransProb = 0
	attacker.Pace = func() { fw.Clock().Advance(500 * time.Microsecond) }
	if _, err := attacker.RunBTSDoS(fw.GNB, 8); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(8 * time.Second)
	for {
		entries := mitigate.Entries(fw.SDL)
		found := false
		for _, en := range entries {
			if en.Decision == "dry-run" {
				found = true
			}
			if en.Decision == "approved" {
				t.Fatalf("dry-run engine approved for issue: %+v", en)
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no dry-run proposal journaled (journal=%+v)", entries)
		}
		time.Sleep(5 * time.Millisecond)
	}
	fw.Mitigator().Quiesce()
	if got := fw.RIC.Metrics().ControlsOK.Load(); got != controlsBefore {
		t.Errorf("dry-run issued %d controls", got-controlsBefore)
	}
	if n := fw.GNB.ActiveUEs(); n < 8 {
		t.Errorf("ActiveUEs = %d; dry-run must not release attacker contexts", n)
	}
}

// TestMitigationA1PolicySwitchesMode proves the A1 path reconfigures the
// running engine.
func TestMitigationA1PolicySwitchesMode(t *testing.T) {
	fw := newMitigatingFramework(t, "off", 0)
	if got := fw.Mitigator().Mode(); got != mitigate.ModeOff {
		t.Fatalf("initial mode = %v", got)
	}
	if err := fw.A1.Put(smo.Policy{ID: "mitigation", MitigationMode: "enforce",
		DenyActions: []string{"release-ue"}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for fw.Mitigator().Mode() != mitigate.ModeEnforce {
		if time.Now().After(deadline) {
			t.Fatalf("mode = %v after policy", fw.Mitigator().Mode())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
