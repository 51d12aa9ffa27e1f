package corenet

import (
	"testing"

	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/nas"
	"github.com/6g-xsec/xsec/internal/ngap"
)

var testK = [nas.KeySize]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}

const testSUPI = cell.SUPI("imsi-001010000000001")

func newTestAMF() *AMF {
	a := NewAMF(1)
	a.AddSubscriber(Subscriber{SUPI: testSUPI, K: testK})
	return a
}

func uplink(t *testing.T, a *AMF, ranUE uint64, m nas.Message) []*ngap.Message {
	t.Helper()
	out, err := a.HandleNGAP(&ngap.Message{Type: ngap.TypeUplinkNASTransport, RANUEID: ranUE, NASPDU: nas.Encode(m)})
	if err != nil {
		t.Fatalf("HandleNGAP(%s): %v", m.Type(), err)
	}
	return out
}

func nasOf(t *testing.T, m *ngap.Message) nas.Message {
	t.Helper()
	decoded, err := nas.Decode(m.NASPDU)
	if err != nil {
		t.Fatal(err)
	}
	return decoded
}

func suciIdentity() nas.MobileIdentity {
	suci, _ := cell.SUCIFromSUPI(testSUPI, 0)
	return nas.MobileIdentity{Type: nas.IdentitySUCI, SUCI: suci}
}

// runRegistration drives a full benign registration and returns the GUTI.
func runRegistration(t *testing.T, a *AMF, ranUE uint64, capability uint32) cell.GUTI {
	t.Helper()
	out := uplink(t, a, ranUE, &nas.RegistrationRequest{Identity: suciIdentity(), Capability: capability})
	auth, ok := nasOf(t, out[0]).(*nas.AuthenticationRequest)
	if !ok {
		t.Fatalf("expected AuthenticationRequest, got %T", nasOf(t, out[0]))
	}
	if auth.AUTN != nas.Challenge(testK, auth.RAND, a.nextSQN) {
		t.Fatal("AMF AUTN is not the subscriber key's challenge")
	}
	out = uplink(t, a, ranUE, &nas.AuthenticationResponse{RES: nas.DeriveRES(testK, auth.RAND)})
	smc, ok := nasOf(t, out[0]).(*nas.SecurityModeCommand)
	if !ok {
		t.Fatalf("expected SecurityModeCommand, got %T", nasOf(t, out[0]))
	}
	_ = smc
	out = uplink(t, a, ranUE, &nas.SecurityModeComplete{})
	if len(out) != 2 || out[0].Type != ngap.TypeInitialContextSetupRequest {
		t.Fatalf("post-SMC messages = %+v", out)
	}
	accept, ok := nasOf(t, out[1]).(*nas.RegistrationAccept)
	if !ok {
		t.Fatalf("expected RegistrationAccept, got %T", nasOf(t, out[1]))
	}
	uplink(t, a, ranUE, &nas.RegistrationComplete{})
	return accept.GUTI
}

func TestBenignRegistration(t *testing.T) {
	a := newTestAMF()
	guti := runRegistration(t, a, 1, CapAll)
	if guti.TMSI == cell.InvalidTMSI {
		t.Error("no TMSI allocated")
	}
	if supi, ok := a.byTMSI[guti.TMSI]; !ok || supi != testSUPI {
		t.Errorf("TMSI lookup = %q, %v", supi, ok)
	}
}

func TestStrongestAlgorithmsSelected(t *testing.T) {
	a := newTestAMF()
	out := uplink(t, a, 1, &nas.RegistrationRequest{Identity: suciIdentity(), Capability: CapAll})
	auth := nasOf(t, out[0]).(*nas.AuthenticationRequest)
	out = uplink(t, a, 1, &nas.AuthenticationResponse{RES: nas.DeriveRES(testK, auth.RAND)})
	smc := nasOf(t, out[0]).(*nas.SecurityModeCommand)
	if smc.CipherAlg != cell.NEA3 || smc.IntegAlg != cell.NIA3 {
		t.Errorf("selected %s/%s, want NEA3/NIA3", smc.CipherAlg, smc.IntegAlg)
	}
}

func TestBidDownSelectsNullAlgorithms(t *testing.T) {
	// The Null Cipher & Integrity attack: UE claims only null algorithms.
	a := newTestAMF()
	out := uplink(t, a, 1, &nas.RegistrationRequest{Identity: suciIdentity(), Capability: CapNEA0 | CapNIA0})
	auth := nasOf(t, out[0]).(*nas.AuthenticationRequest)
	out = uplink(t, a, 1, &nas.AuthenticationResponse{RES: nas.DeriveRES(testK, auth.RAND)})
	smc := nasOf(t, out[0]).(*nas.SecurityModeCommand)
	if !smc.CipherAlg.Null() || !smc.IntegAlg.Null() {
		t.Errorf("selected %s/%s, want NEA0/NIA0", smc.CipherAlg, smc.IntegAlg)
	}
}

func TestRequireStrongSecurityRejectsBidDown(t *testing.T) {
	a := newTestAMF()
	a.RequireStrongSecurity = true
	out := uplink(t, a, 1, &nas.RegistrationRequest{Identity: suciIdentity(), Capability: CapNEA0 | CapNIA0})
	auth := nasOf(t, out[0]).(*nas.AuthenticationRequest)
	out = uplink(t, a, 1, &nas.AuthenticationResponse{RES: nas.DeriveRES(testK, auth.RAND)})
	if _, ok := nasOf(t, out[0]).(*nas.RegistrationReject); !ok {
		t.Errorf("expected RegistrationReject, got %T", nasOf(t, out[0]))
	}
}

func TestUnknownSubscriberRejected(t *testing.T) {
	a := newTestAMF()
	suci, _ := cell.SUCIFromSUPI("imsi-001019999999999", 0)
	out := uplink(t, a, 1, &nas.RegistrationRequest{Identity: nas.MobileIdentity{Type: nas.IdentitySUCI, SUCI: suci}})
	if _, ok := nasOf(t, out[0]).(*nas.RegistrationReject); !ok {
		t.Errorf("expected RegistrationReject, got %T", nasOf(t, out[0]))
	}
}

func TestConcealedSUCIRejected(t *testing.T) {
	a := newTestAMF()
	suci, _ := cell.SUCIFromSUPI(testSUPI, 1)
	out := uplink(t, a, 1, &nas.RegistrationRequest{Identity: nas.MobileIdentity{Type: nas.IdentitySUCI, SUCI: suci}})
	if _, ok := nasOf(t, out[0]).(*nas.RegistrationReject); !ok {
		t.Errorf("expected RegistrationReject, got %T", nasOf(t, out[0]))
	}
}

func TestUnknownGUTITriggersIdentityRequest(t *testing.T) {
	a := newTestAMF()
	out := uplink(t, a, 1, &nas.RegistrationRequest{
		Identity: nas.MobileIdentity{Type: nas.IdentityGUTI, GUTI: cell.GUTI{TMSI: 0xDEAD}},
	})
	idReq, ok := nasOf(t, out[0]).(*nas.IdentityRequest)
	if !ok {
		t.Fatalf("expected IdentityRequest, got %T", nasOf(t, out[0]))
	}
	if idReq.Requested != nas.IdentitySUCI {
		t.Errorf("requested %v", idReq.Requested)
	}
	// UE answers with its SUCI; registration proceeds to auth.
	out = uplink(t, a, 1, &nas.IdentityResponse{Identity: suciIdentity()})
	if _, ok := nasOf(t, out[0]).(*nas.AuthenticationRequest); !ok {
		t.Errorf("expected AuthenticationRequest after identity, got %T", nasOf(t, out[0]))
	}
}

func TestKnownGUTISkipsIdentity(t *testing.T) {
	a := newTestAMF()
	guti := runRegistration(t, a, 1, CapAll)
	a.ReleaseUE(1)
	out := uplink(t, a, 2, &nas.RegistrationRequest{
		Identity: nas.MobileIdentity{Type: nas.IdentityGUTI, GUTI: guti},
	})
	if _, ok := nasOf(t, out[0]).(*nas.AuthenticationRequest); !ok {
		t.Errorf("expected AuthenticationRequest, got %T", nasOf(t, out[0]))
	}
}

func TestWrongRESRejected(t *testing.T) {
	a := newTestAMF()
	uplink(t, a, 1, &nas.RegistrationRequest{Identity: suciIdentity(), Capability: CapAll})
	out := uplink(t, a, 1, &nas.AuthenticationResponse{RES: []byte("wrong")})
	if _, ok := nasOf(t, out[0]).(*nas.RegistrationReject); !ok {
		t.Errorf("expected RegistrationReject, got %T", nasOf(t, out[0]))
	}
}

func TestDeregistration(t *testing.T) {
	a := newTestAMF()
	runRegistration(t, a, 1, CapAll)
	out := uplink(t, a, 1, &nas.DeregistrationRequest{SwitchOff: false})
	if len(out) != 2 {
		t.Fatalf("got %d messages", len(out))
	}
	if _, ok := nasOf(t, out[0]).(*nas.DeregistrationAccept); !ok {
		t.Errorf("expected DeregistrationAccept, got %T", nasOf(t, out[0]))
	}
	if out[1].Type != ngap.TypeUEContextReleaseCommand {
		t.Errorf("second message = %s", out[1].Type)
	}
}

func TestServiceRequest(t *testing.T) {
	a := newTestAMF()
	guti := runRegistration(t, a, 1, CapAll)
	out := uplink(t, a, 2, &nas.ServiceRequest{TMSI: guti.TMSI})
	if _, ok := nasOf(t, out[0]).(*nas.ServiceAccept); !ok {
		t.Errorf("expected ServiceAccept, got %T", nasOf(t, out[0]))
	}
	out = uplink(t, a, 3, &nas.ServiceRequest{TMSI: 0xBAD})
	if _, ok := nasOf(t, out[0]).(*nas.RegistrationReject); !ok {
		t.Errorf("expected RegistrationReject for unknown TMSI, got %T", nasOf(t, out[0]))
	}
}

func TestReregistrationRotatesTMSI(t *testing.T) {
	a := newTestAMF()
	g1 := runRegistration(t, a, 1, CapAll)
	a.ReleaseUE(1)
	g2 := runRegistration(t, a, 2, CapAll)
	if g1.TMSI == g2.TMSI {
		t.Error("TMSI not rotated on re-registration")
	}
	if _, ok := a.byTMSI[g1.TMSI]; ok {
		t.Error("stale TMSI binding survives re-registration")
	}
}

func TestMalformedNASRejected(t *testing.T) {
	a := newTestAMF()
	_, err := a.HandleNGAP(&ngap.Message{Type: ngap.TypeUplinkNASTransport, RANUEID: 1, NASPDU: []byte{0xFF}})
	if err == nil {
		t.Error("malformed NAS accepted")
	}
}
