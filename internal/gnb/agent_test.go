package gnb

import (
	"errors"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/asn1lite"
	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/e2ap"
	"github.com/6g-xsec/xsec/internal/e2sm"
	"github.com/6g-xsec/xsec/internal/ric"
	"github.com/6g-xsec/xsec/internal/rrc"
	"github.com/6g-xsec/xsec/internal/sdl"
	"github.com/6g-xsec/xsec/internal/wire"
)

// agentEnv attaches a gNB agent to a platform over an in-process pipe.
func agentEnv(t *testing.T) (*ric.Platform, *GNB) {
	t.Helper()
	p := ric.NewPlatform(sdl.New())
	t.Cleanup(p.Close)
	g := newTestGNB(t, nil)

	ricEnd, nodeEnd := e2ap.Pipe()
	go p.AttachNode(ricEnd)
	go g.ServeE2(nodeEnd)
	deadline := time.Now().Add(2 * time.Second)
	for len(p.Nodes()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("agent did not attach")
		}
		time.Sleep(time.Millisecond)
	}
	return p, g
}

func TestAgentAdvertisesServiceModels(t *testing.T) {
	p, _ := agentEnv(t)
	nodes := p.Nodes()
	if len(nodes) != 1 {
		t.Fatalf("nodes = %d", len(nodes))
	}
	var ids []uint16
	for _, rf := range nodes[0].RANFunctions {
		ids = append(ids, rf.ID)
	}
	if len(ids) != 2 || ids[0] != e2sm.MobiFlowRANFunctionID || ids[1] != e2sm.XRCRANFunctionID {
		t.Errorf("RAN functions = %v", ids)
	}
}

func subscribe(t *testing.T, x *ric.XApp, nodeID string, period time.Duration) *ric.Subscription {
	t.Helper()
	trigger := asn1lite.Marshal(&e2sm.EventTrigger{Period: period})
	sub, err := x.Subscribe(nodeID, e2sm.MobiFlowRANFunctionID, trigger,
		[]e2ap.Action{{ID: 1, Type: e2ap.ActionReport}}, ric.SubscribeOptions{Buffer: 64})
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func TestAgentReportsTelemetry(t *testing.T) {
	p, g := agentEnv(t)
	x, _ := p.RegisterXApp("collector")
	sub := subscribe(t, x, "gnb-test", 5*time.Millisecond)

	driveRegistration(t, g)

	select {
	case ind := <-sub.C(0):
		var hdr e2sm.IndicationHeader
		if err := asn1lite.Unmarshal(ind.Header, &hdr); err != nil {
			t.Fatal(err)
		}
		if hdr.NodeID != "gnb-test" || hdr.BatchSeq == 0 {
			t.Errorf("header = %+v", hdr)
		}
		msg, err := e2sm.DecodeIndicationMessage(ind.Message)
		if err != nil {
			t.Fatal(err)
		}
		if len(msg.Records) == 0 || msg.Records[0].Msg != "RRCSetupRequest" {
			t.Errorf("first record = %+v", msg.Records[0])
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no indication")
	}
	if err := sub.Delete(); err != nil {
		t.Fatal(err)
	}
}

func TestAgentRejectsBadSubscriptions(t *testing.T) {
	p, _ := agentEnv(t)
	x, _ := p.RegisterXApp("bad")

	// Wrong RAN function.
	if _, err := x.Subscribe("gnb-test", 99, asn1lite.Marshal(&e2sm.EventTrigger{Period: time.Millisecond}),
		[]e2ap.Action{{ID: 1, Type: e2ap.ActionReport}}, ric.SubscribeOptions{Buffer: 1}); !errors.Is(err, ric.ErrSubscriptionFailed) {
		t.Errorf("wrong fn: err = %v", err)
	}
	// Invalid trigger.
	if _, err := x.Subscribe("gnb-test", e2sm.MobiFlowRANFunctionID, []byte{0xFF},
		[]e2ap.Action{{ID: 1, Type: e2ap.ActionReport}}, ric.SubscribeOptions{Buffer: 1}); !errors.Is(err, ric.ErrSubscriptionFailed) {
		t.Errorf("bad trigger: err = %v", err)
	}
	// No report action.
	if _, err := x.Subscribe("gnb-test", e2sm.MobiFlowRANFunctionID,
		asn1lite.Marshal(&e2sm.EventTrigger{Period: time.Millisecond}),
		[]e2ap.Action{{ID: 1, Type: e2ap.ActionPolicy}}, ric.SubscribeOptions{Buffer: 1}); !errors.Is(err, ric.ErrSubscriptionFailed) {
		t.Errorf("no report action: err = %v", err)
	}
}

func TestAgentControlActions(t *testing.T) {
	p, g := agentEnv(t)
	x, _ := p.RegisterXApp("controller")

	link := g.Attach()
	link.SendRRC(&rrc.SetupRequest{})

	// Release the UE.
	ctrl := asn1lite.Marshal(&e2sm.ControlRequest{Action: e2sm.ControlReleaseUE, UEID: link.UEID()})
	if err := x.Control("gnb-test", e2sm.XRCRANFunctionID, nil, ctrl); err != nil {
		t.Fatal(err)
	}
	if g.ActiveUEs() != 0 {
		t.Error("UE not released by control")
	}
	// Releasing again fails cleanly.
	if err := x.Control("gnb-test", e2sm.XRCRANFunctionID, nil, ctrl); !errors.Is(err, ric.ErrControlFailed) {
		t.Errorf("double release: err = %v", err)
	}
	// Block a TMSI and verify at the data plane.
	block := asn1lite.Marshal(&e2sm.ControlRequest{Action: e2sm.ControlBlockTMSI, TMSI: 0xFEED})
	if err := x.Control("gnb-test", e2sm.XRCRANFunctionID, nil, block); err != nil {
		t.Fatal(err)
	}
	l2 := g.Attach()
	l2.SendRRC(&rrc.SetupRequest{Identity: rrc.UEIdentity{Kind: rrc.IdentityTMSI, TMSI: 0xFEED}})
	if m, ok := l2.TryRecv(); !ok || m.Type() != rrc.TypeReject {
		t.Errorf("blocked TMSI got %v", m)
	}
	// Wrong RAN function for control.
	if err := x.Control("gnb-test", e2sm.MobiFlowRANFunctionID, nil, ctrl); !errors.Is(err, ric.ErrControlFailed) {
		t.Errorf("wrong fn control: err = %v", err)
	}
	// Undecodable control message.
	if err := x.Control("gnb-test", e2sm.XRCRANFunctionID, nil, []byte{0xFF}); !errors.Is(err, ric.ErrControlFailed) {
		t.Errorf("garbage control: err = %v", err)
	}
}

// TestControlFailureUnknownActionRoundTrip drives a control request with
// an undefined action code through a raw E2 connection, so the resulting
// ControlFailure is observed as the peer decodes it — proving the failure
// PDU survives the e2ap encode/decode round trip intact.
func TestControlFailureUnknownActionRoundTrip(t *testing.T) {
	g := newTestGNB(t, nil)
	ricEnd, nodeEnd := e2ap.Pipe()
	go g.ServeE2(nodeEnd)

	setup, err := ricEnd.Recv()
	if err != nil || setup.Type != e2ap.TypeE2SetupRequest {
		t.Fatalf("setup = %+v err=%v", setup, err)
	}
	if err := ricEnd.Send(&e2ap.Message{Type: e2ap.TypeE2SetupResponse, NodeID: "ric-test"}); err != nil {
		t.Fatal(err)
	}

	reqID := e2ap.RequestID{Requestor: 7, Instance: 1}
	ctrl := asn1lite.Marshal(&e2sm.ControlRequest{Action: e2sm.ControlAction(250), UEID: 1})
	if err := ricEnd.Send(&e2ap.Message{
		Type: e2ap.TypeControlRequest, RequestID: reqID,
		RANFunctionID: e2sm.XRCRANFunctionID, ControlMessage: ctrl,
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := ricEnd.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != e2ap.TypeControlFailure || resp.RequestID != reqID {
		t.Fatalf("response = %+v", resp)
	}
	if resp.Cause != "unknown control action 250" {
		t.Errorf("cause = %q", resp.Cause)
	}
	// The decoded failure re-encodes to the identical PDU.
	reenc, err := e2ap.Decode(e2ap.Encode(resp))
	if err != nil {
		t.Fatal(err)
	}
	if reenc.Type != resp.Type || reenc.RequestID != resp.RequestID || reenc.Cause != resp.Cause {
		t.Errorf("re-encoded failure = %+v", reenc)
	}
}

// TestDuplicateBlockAndUnblockTMSI covers the reversible mitigation pair:
// blocking twice is idempotent (both controls ack), and unblocking
// restores attach service for the identity.
func TestDuplicateBlockAndUnblockTMSI(t *testing.T) {
	p, g := agentEnv(t)
	x, _ := p.RegisterXApp("mitigator")

	const tmsi = cell.TMSI(0xCAFE)
	block := asn1lite.Marshal(&e2sm.ControlRequest{Action: e2sm.ControlBlockTMSI, TMSI: tmsi})
	for i := 0; i < 2; i++ { // duplicate block: both ack, one entry
		if err := x.Control("gnb-test", e2sm.XRCRANFunctionID, nil, block); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
	}
	if g.BlockedTMSIs() != 1 {
		t.Errorf("blocked TMSIs = %d, want 1", g.BlockedTMSIs())
	}
	attempt := func() rrc.Message {
		l := g.Attach()
		l.SendRRC(&rrc.SetupRequest{Identity: rrc.UEIdentity{Kind: rrc.IdentityTMSI, TMSI: tmsi}})
		m, ok := l.TryRecv()
		if !ok {
			t.Fatal("no downlink response to setup request")
		}
		return m
	}
	if m := attempt(); m.Type() != rrc.TypeReject {
		t.Fatalf("blocked TMSI got %v, want reject", m.Type())
	}

	unblock := asn1lite.Marshal(&e2sm.ControlRequest{Action: e2sm.ControlUnblockTMSI, TMSI: tmsi})
	if err := x.Control("gnb-test", e2sm.XRCRANFunctionID, nil, unblock); err != nil {
		t.Fatal(err)
	}
	if g.BlockedTMSIs() != 0 {
		t.Errorf("blocked TMSIs after unblock = %d", g.BlockedTMSIs())
	}
	if m := attempt(); m.Type() != rrc.TypeSetup {
		t.Errorf("unblocked TMSI got %v, want RRCSetup", m.Type())
	}
	// Unblocking an unblocked TMSI still acks (no-op rollback retry).
	if err := x.Control("gnb-test", e2sm.XRCRANFunctionID, nil, unblock); err != nil {
		t.Errorf("no-op unblock: %v", err)
	}
}

func TestAgentOverTCP(t *testing.T) {
	p := ric.NewPlatform(sdl.New())
	defer p.Close()
	l, err := wire.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go p.ServeE2(l)

	g := newTestGNB(t, nil)
	conn, err := wire.Dial(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	go g.ServeE2(e2ap.NewEndpoint(conn))

	deadline := time.Now().Add(2 * time.Second)
	for len(p.Nodes()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("TCP agent did not attach")
		}
		time.Sleep(time.Millisecond)
	}

	// Full telemetry round trip over real sockets.
	x, _ := p.RegisterXApp("tcp-collector")
	sub := subscribe(t, x, "gnb-test", 5*time.Millisecond)
	driveRegistration(t, g)
	select {
	case ind := <-sub.C(0):
		msg, err := e2sm.DecodeIndicationMessage(ind.Message)
		if err != nil || len(msg.Records) == 0 {
			t.Fatalf("bad indication: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no indication over TCP")
	}
	_ = cell.RNTI(0)
}

func TestAgentSetupRejectedByRIC(t *testing.T) {
	// Two gNBs with the same node ID: the second setup fails and
	// ServeE2 returns an error.
	p := ric.NewPlatform(sdl.New())
	defer p.Close()
	g1 := newTestGNB(t, nil)
	g2 := newTestGNB(t, nil)

	r1, n1 := e2ap.Pipe()
	go p.AttachNode(r1)
	go g1.ServeE2(n1)
	deadline := time.Now().Add(2 * time.Second)
	for len(p.Nodes()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first agent did not attach")
		}
		time.Sleep(time.Millisecond)
	}

	r2, n2 := e2ap.Pipe()
	go p.AttachNode(r2)
	errc := make(chan error, 1)
	go func() { errc <- g2.ServeE2(n2) }()
	select {
	case err := <-errc:
		if err == nil {
			t.Error("duplicate node setup succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("second agent did not fail")
	}
}
