package gnb

import (
	"errors"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/corenet"
	"github.com/6g-xsec/xsec/internal/nas"
	"github.com/6g-xsec/xsec/internal/rrc"
)

var testK = [nas.KeySize]byte{1, 2, 3, 4}

const testSUPI = cell.SUPI("imsi-001010000000001")

func newTestGNB(t *testing.T) *GNB {
	t.Helper()
	amf := corenet.NewAMF(7)
	amf.AddSubscriber(corenet.Subscriber{SUPI: testSUPI, K: testK})
	clock := time.Unix(1700000000, 0)
	g, err := New(Config{
		NodeID: "gnb-test",
		AMF:    amf,
		Clock: func() time.Time {
			clock = clock.Add(time.Millisecond)
			return clock
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{NodeID: "x"}); err == nil {
		t.Error("missing AMF accepted")
	}
	if _, err := New(Config{AMF: corenet.NewAMF(1)}); err == nil {
		t.Error("missing NodeID accepted")
	}
}

func TestAttachAllocatesDistinctRNTIs(t *testing.T) {
	g := newTestGNB(t)
	seen := make(map[cell.RNTI]bool)
	for i := 0; i < 50; i++ {
		l := g.Attach()
		if seen[l.RNTI()] {
			t.Fatalf("duplicate RNTI %s", l.RNTI())
		}
		seen[l.RNTI()] = true
	}
	if g.ActiveUEs() != 50 {
		t.Errorf("ActiveUEs = %d", g.ActiveUEs())
	}
}

// driveRegistration pushes a full benign attach through raw link calls.
func driveRegistration(t *testing.T, g *GNB) *Link {
	t.Helper()
	link := g.Attach()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(link.SendRRC(&rrc.SetupRequest{Identity: rrc.UEIdentity{Kind: rrc.IdentityRandom, Random: 42}, Cause: cell.CauseMOSignalling}))
	if m, ok := link.TryRecv(); !ok || m.Type() != rrc.TypeSetup {
		t.Fatalf("expected RRCSetup, got %v", m)
	}
	suci, _ := cell.SUCIFromSUPI(testSUPI, 0)
	reg := &nas.RegistrationRequest{Identity: nas.MobileIdentity{Type: nas.IdentitySUCI, SUCI: suci}, Capability: corenet.CapAll}
	must(link.SendRRC(&rrc.SetupComplete{NASPDU: nas.Encode(reg)}))

	// Auth request comes down; answer it.
	dl, ok := link.TryRecv()
	if !ok {
		t.Fatal("no auth request")
	}
	authReq, err := nas.Decode(dl.(*rrc.DLInformationTransfer).NASPDU)
	must(err)
	res := nas.DeriveRES(testK, authReq.(*nas.AuthenticationRequest).RAND)
	must(link.SendRRC(&rrc.ULInformationTransfer{NASPDU: nas.Encode(&nas.AuthenticationResponse{RES: res})}))

	// NAS security mode.
	dl, _ = link.TryRecv()
	if _, err := nas.Decode(dl.(*rrc.DLInformationTransfer).NASPDU); err != nil {
		t.Fatal(err)
	}
	must(link.SendRRC(&rrc.ULInformationTransfer{NASPDU: nas.Encode(&nas.SecurityModeComplete{})}))

	// AS security mode.
	dl, ok = link.TryRecv()
	if !ok || dl.Type() != rrc.TypeSecurityModeCommand {
		t.Fatalf("expected RRC SMC, got %v", dl)
	}
	must(link.SendRRC(&rrc.SecurityModeComplete{}))

	// Reconfiguration with the registration accept.
	dl, ok = link.TryRecv()
	if !ok || dl.Type() != rrc.TypeReconfiguration {
		t.Fatalf("expected Reconfiguration, got %v", dl)
	}
	reconf := dl.(*rrc.Reconfiguration)
	if len(reconf.NASPDU) == 0 {
		t.Fatal("reconfiguration missing registration accept")
	}
	accept, err := nas.Decode(reconf.NASPDU)
	must(err)
	if _, ok := accept.(*nas.RegistrationAccept); !ok {
		t.Fatalf("piggybacked NAS = %T", accept)
	}
	must(link.SendRRC(&rrc.ReconfigurationComplete{}))
	return link
}

func TestBenignRegistrationTelemetry(t *testing.T) {
	g := newTestGNB(t)
	driveRegistration(t, g)

	tr := g.Records()
	wantMsgs := []string{
		"RRCSetupRequest", "RRCSetup", "RRCSetupComplete",
		"RegistrationRequest", "AuthenticationRequest", "AuthenticationResponse",
		"NASSecurityModeCommand", "NASSecurityModeComplete",
		"RRCSecurityModeCommand", "RRCSecurityModeComplete",
		"RRCReconfiguration", "RegistrationAccept", "RRCReconfigurationComplete",
	}
	if len(tr) != len(wantMsgs) {
		var got []string
		for _, r := range tr {
			got = append(got, r.Msg)
		}
		t.Fatalf("telemetry sequence:\n got %v\nwant %v", got, wantMsgs)
	}
	for i, want := range wantMsgs {
		if tr[i].Msg != want {
			t.Errorf("record %d = %s, want %s", i, tr[i].Msg, want)
		}
		if tr[i].OutOfOrder {
			t.Errorf("record %d (%s) flagged out-of-order", i, tr[i].Msg)
		}
	}
	last := tr[len(tr)-1]
	if !last.SecurityOn || last.CipherAlg.Null() || last.IntegAlg.Null() {
		t.Errorf("final security state: on=%v %s/%s", last.SecurityOn, last.CipherAlg, last.IntegAlg)
	}
	if last.TMSI == cell.InvalidTMSI {
		t.Error("no TMSI in final telemetry")
	}
}

func TestDeregistrationReleasesContext(t *testing.T) {
	g := newTestGNB(t)
	link := driveRegistration(t, g)
	if err := link.SendRRC(&rrc.ULInformationTransfer{NASPDU: nas.Encode(&nas.DeregistrationRequest{})}); err != nil {
		t.Fatal(err)
	}
	// Deregistration accept then RRC release.
	sawRelease := false
	for {
		m, ok := link.TryRecv()
		if !ok {
			break
		}
		if m.Type() == rrc.TypeRelease {
			sawRelease = true
		}
	}
	if !sawRelease {
		t.Error("no RRC release after deregistration")
	}
	if g.ActiveUEs() != 0 {
		t.Errorf("ActiveUEs = %d after deregistration", g.ActiveUEs())
	}
	if err := link.SendRRC(&rrc.SetupRequest{}); !errors.Is(err, ErrReleased) {
		t.Errorf("send on released context: err = %v", err)
	}
}

func TestRetransmissionRecordedOnce(t *testing.T) {
	g := newTestGNB(t)
	link := g.Attach()
	msg := &rrc.SetupRequest{Identity: rrc.UEIdentity{Kind: rrc.IdentityRandom, Random: 1}}
	link.SendRRC(msg)
	link.SendRRC(msg) // duplicate
	tr := g.Records()
	if len(tr) != 3 { // request, DL setup, retransmitted request
		t.Fatalf("records = %d", len(tr))
	}
	retx := 0
	for _, r := range tr {
		if r.Retransmission {
			retx++
		}
	}
	if retx != 1 {
		t.Errorf("retransmissions recorded = %d, want 1", retx)
	}
	// Only one RRCSetup went downlink (no duplicate response).
	count := 0
	for {
		if _, ok := link.TryRecv(); !ok {
			break
		}
		count++
	}
	if count != 1 {
		t.Errorf("downlink responses = %d, want 1", count)
	}
}

func TestBlockedTMSIRejected(t *testing.T) {
	g := newTestGNB(t)
	g.BlockTMSI(0xBEEF)
	link := g.Attach()
	link.SendRRC(&rrc.SetupRequest{Identity: rrc.UEIdentity{Kind: rrc.IdentityTMSI, TMSI: 0xBEEF}})
	m, ok := link.TryRecv()
	if !ok || m.Type() != rrc.TypeReject {
		t.Fatalf("expected RRCReject, got %v", m)
	}
	if g.ActiveUEs() != 0 {
		t.Error("blocked UE context not released")
	}
}

func TestReleaseUEControl(t *testing.T) {
	g := newTestGNB(t)
	link := g.Attach()
	link.SendRRC(&rrc.SetupRequest{})
	if err := g.ReleaseUE(link.UEID()); err != nil {
		t.Fatal(err)
	}
	if err := g.ReleaseUE(999); !errors.Is(err, ErrNoSuchUE) {
		t.Errorf("err = %v, want ErrNoSuchUE", err)
	}
}

func TestDrainRecords(t *testing.T) {
	g := newTestGNB(t)
	link := g.Attach()
	link.SendRRC(&rrc.SetupRequest{})
	if n := len(g.DrainRecords()); n == 0 {
		t.Fatal("drain returned nothing")
	}
	if n := len(g.DrainRecords()); n != 0 {
		t.Errorf("second drain = %d records", n)
	}
}
