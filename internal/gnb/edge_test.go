package gnb

import (
	"testing"

	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/rrc"
)

func TestReestablishmentFlow(t *testing.T) {
	g := newTestGNB(t)
	link := driveRegistration(t, g)

	// Radio-link failure: the UE asks to reestablish with its C-RNTI.
	if err := link.SendRRC(&rrc.ReestablishmentRequest{RNTI: link.RNTI(), Cause: cell.CauseMOData}); err != nil {
		t.Fatal(err)
	}
	m, ok := link.TryRecv()
	if !ok || m.Type() != rrc.TypeReestablishment {
		t.Fatalf("expected RRCReestablishment, got %v", m)
	}
	// Telemetry recorded both legs.
	msgs := g.Records().Messages()
	var sawReq, sawResp bool
	for _, msg := range msgs {
		if msg == "RRCReestablishmentRequest" {
			sawReq = true
		}
		if msg == "RRCReestablishment" {
			sawResp = true
		}
	}
	if !sawReq || !sawResp {
		t.Errorf("reestablishment telemetry missing: %v", msgs[len(msgs)-4:])
	}
}

// TestReestablishmentWithoutSecurityFallsBackToSetup sends
// RRCReestablishmentRequest on links whose AS security never completed —
// a fresh one, and one that sends an unsolicited SecurityModeComplete
// first: each is answered with RRCSetup, the fallback to a new
// connection, never RRCReestablishment.
func TestReestablishmentWithoutSecurityFallsBackToSetup(t *testing.T) {
	g := newTestGNB(t)
	for _, unsolicited := range []bool{false, true} {
		link := g.Attach()
		if unsolicited {
			if err := link.SendRRC(&rrc.SecurityModeComplete{}); err != nil {
				t.Fatal(err)
			}
			for _, ok := link.TryRecv(); ok; _, ok = link.TryRecv() {
			}
		}
		if err := link.SendRRC(&rrc.ReestablishmentRequest{RNTI: link.RNTI(), Cause: cell.CauseMOData}); err != nil {
			t.Fatal(err)
		}
		if m, ok := link.TryRecv(); !ok || m.Type() != rrc.TypeSetup {
			t.Errorf("unsolicited SecurityModeComplete %v: answered %v, want RRCSetup", unsolicited, m)
		}
	}
}

func TestDownlinkQueueOverflowDropsLikeRadioLoss(t *testing.T) {
	g := newTestGNB(t)
	link := g.Attach()
	// Each distinct setup request draws an RRCSetup; the queue keeps
	// the first dlQueueDepth of them.
	for i := range dlQueueDepth + 1 {
		link.SendRRC(&rrc.SetupRequest{Identity: rrc.UEIdentity{Kind: rrc.IdentityRandom, Random: uint64(i + 1)}})
	}
	count := 0
	for {
		if _, ok := link.TryRecv(); !ok {
			break
		}
		count++
	}
	if count != dlQueueDepth {
		t.Errorf("delivered %d downlinks, want %d (overflow drop)", count, dlQueueDepth)
	}
	// The dropped response is still in telemetry: the network sent it.
	saw := 0
	for _, m := range g.Records().Messages() {
		if m == "RRCSetup" {
			saw++
		}
	}
	if saw != dlQueueDepth+1 {
		t.Errorf("telemetry shows %d downlink responses, want %d", saw, dlQueueDepth+1)
	}
}

func TestAbandonedContextStaysUntilReleased(t *testing.T) {
	g := newTestGNB(t)
	link := g.Attach()
	link.SendRRC(&rrc.SetupRequest{})
	link.Abandon()
	if g.ActiveUEs() != 1 {
		t.Fatalf("ActiveUEs = %d, want 1 (context leak is the DoS)", g.ActiveUEs())
	}
	g.ReleaseUE(link.UEID())
	if g.ActiveUEs() != 0 {
		t.Error("context not released")
	}
}

func TestSetupRequestAfterAbandonGetsFreshRNTIs(t *testing.T) {
	g := newTestGNB(t)
	l1 := g.Attach()
	l1.SendRRC(&rrc.SetupRequest{})
	l1.Abandon()
	l2 := g.Attach()
	if l1.RNTI() == l2.RNTI() {
		t.Error("RNTI reused while context still allocated")
	}
}
