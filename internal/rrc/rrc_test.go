package rrc

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/6g-xsec/xsec/internal/cell"
)

// allMessages returns one populated instance of every message type.
func allMessages() []Message {
	return []Message{
		&SetupRequest{Identity: UEIdentity{Kind: IdentityRandom, Random: 0x1234567890}, Cause: cell.CauseMOSignalling},
		&SetupRequest{Identity: UEIdentity{Kind: IdentityTMSI, TMSI: 0xCAFEBABE}, Cause: cell.CauseMTAccess},
		&Setup{TransactionID: 1, SRBCount: 2},
		&SetupComplete{TransactionID: 1, SelectedPLMN: "001-01", NASPDU: []byte{9, 8, 7}},
		&Reject{WaitTime: 16},
		&SecurityModeCommand{TransactionID: 2, CipherAlg: cell.NEA2, IntegAlg: cell.NIA2},
		&SecurityModeComplete{TransactionID: 2},
		&SecurityModeFailure{TransactionID: 2},
		&Reconfiguration{TransactionID: 3, NASPDU: []byte{1}},
		&ReconfigurationComplete{TransactionID: 3},
		&ULInformationTransfer{NASPDU: []byte{0xAA, 0xBB}},
		&DLInformationTransfer{NASPDU: []byte{0xCC}},
		&ReestablishmentRequest{RNTI: 0x4601, Cause: cell.CauseMOData},
		&Reestablishment{TransactionID: 4},
		&Release{Cause: ReleaseDeregistration},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, in := range allMessages() {
		data := Encode(in)
		out, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: Decode: %v", in.Type(), err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("%s: round trip:\n got %#v\nwant %#v", in.Type(), out, in)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("Decode(nil) succeeded")
	}
	if _, err := Decode([]byte{0xFF}); !errors.Is(err, ErrUnknownType) {
		t.Errorf("unknown type: err = %v, want ErrUnknownType", err)
	}
	if _, err := Decode([]byte{byte(TypeSetupRequest), 0x01}); err == nil {
		t.Error("truncated body decoded without error")
	}
}

func TestMessageDirections(t *testing.T) {
	uplink := map[MsgType]bool{
		TypeSetupRequest: true, TypeSetupComplete: true,
		TypeSecurityModeComplete: true, TypeSecurityModeFailure: true,
		TypeReconfigurationComplete: true, TypeULInformationTransfer: true,
		TypeReestablishmentRequest: true,
	}
	for _, m := range allMessages() {
		want := cell.Downlink
		if uplink[m.Type()] {
			want = cell.Uplink
		}
		if m.Direction() != want {
			t.Errorf("%s: direction = %v, want %v", m.Type(), m.Direction(), want)
		}
	}
}

func TestTypeNames(t *testing.T) {
	if TypeSetupRequest.String() != "RRCSetupRequest" {
		t.Errorf("got %q", TypeSetupRequest.String())
	}
	if !TypeRelease.Valid() || TypeInvalid.Valid() || MsgType(200).Valid() {
		t.Error("Valid() misclassifies")
	}
	if MsgType(200).String() != "MsgType(200)" {
		t.Errorf("got %q", MsgType(200).String())
	}
}

func TestUEIdentityString(t *testing.T) {
	id := UEIdentity{Kind: IdentityTMSI, TMSI: 0x10}
	if id.String() != "s-tmsi:0x00000010" {
		t.Errorf("got %q", id.String())
	}
	id = UEIdentity{Kind: IdentityRandom, Random: 0x1F}
	if id.String() != "random:0x000000001F" {
		t.Errorf("got %q", id.String())
	}
}

func TestBenignStateProgression(t *testing.T) {
	var m Machine
	steps := []struct {
		msg  Message
		want State
	}{
		{&SetupRequest{}, StateSetupRequested},
		{&Setup{}, StateSetupRequested},
		{&SetupComplete{}, StateConnected},
		{&SecurityModeCommand{}, StateConnected},
		{&SecurityModeComplete{}, StateSecurityActivated},
		{&Reconfiguration{}, StateSecurityActivated},
		{&ReconfigurationComplete{}, StateReconfigured},
		{&ULInformationTransfer{}, StateReconfigured},
		{&Release{}, StateReleased},
	}
	for i, s := range steps {
		if err := m.Observe(s.msg); err != nil {
			t.Fatalf("step %d (%s): unexpected error %v", i, s.msg.Type(), err)
		}
		if m.State() != s.want {
			t.Fatalf("step %d (%s): state = %v, want %v", i, s.msg.Type(), m.State(), s.want)
		}
	}
}

func TestOutOfOrderMessageFlagged(t *testing.T) {
	var m Machine
	// SecurityModeComplete in IDLE is illegal.
	err := m.Observe(&SecurityModeComplete{})
	var te *TransitionError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want TransitionError", err)
	}
	if te.State != StateIdle || te.Msg != TypeSecurityModeComplete {
		t.Errorf("TransitionError = %+v", te)
	}
	if te.Error() == "" {
		t.Error("empty error string")
	}
}

func TestIdentityResponseStyleAnomaly(t *testing.T) {
	// The downlink ID-extraction attack sends DLInformationTransfer
	// (Identity Request) right after SetupRequest, before the connection
	// completes. The state machine must flag it.
	var m Machine
	m.Observe(&SetupRequest{})
	if err := m.Observe(&DLInformationTransfer{}); err == nil {
		t.Error("DLInformationTransfer in SETUP_REQUESTED not flagged")
	}
}

func TestRetransmissionTolerated(t *testing.T) {
	var m Machine
	m.Observe(&SetupRequest{})
	if err := m.Observe(&SetupRequest{}); err != nil {
		t.Errorf("retransmitted SetupRequest flagged: %v", err)
	}
}

func TestReleasedAllowsNewSetup(t *testing.T) {
	var m Machine
	m.Observe(&SetupRequest{})
	m.Observe(&SetupComplete{})
	m.Observe(&Release{})
	if err := m.Observe(&SetupRequest{}); err != nil {
		t.Errorf("new SetupRequest after release flagged: %v", err)
	}
}

func TestStateString(t *testing.T) {
	if StateSecurityActivated.String() != "SECURITY_ACTIVATED" {
		t.Errorf("got %q", StateSecurityActivated.String())
	}
	if State(77).String() != "State(77)" {
		t.Errorf("got %q", State(77).String())
	}
}

// Property: SetupRequest round-trips for arbitrary identities and causes.
func TestQuickSetupRequestRoundTrip(t *testing.T) {
	f := func(random uint64, tmsi uint32, useTMSI bool, cause uint8) bool {
		in := &SetupRequest{Cause: cell.EstablishmentCause(cause)}
		if useTMSI {
			in.Identity = UEIdentity{Kind: IdentityTMSI, TMSI: cell.TMSI(tmsi)}
		} else {
			in.Identity = UEIdentity{Kind: IdentityRandom, Random: random & (1<<39 - 1)}
		}
		out, err := Decode(Encode(in))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the decoder never panics on arbitrary bytes.
func TestQuickDecodeRobust(t *testing.T) {
	f := func(data []byte) bool {
		Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeSetupRequest(b *testing.B) {
	m := &SetupRequest{Identity: UEIdentity{Kind: IdentityTMSI, TMSI: 0xCAFEBABE}, Cause: cell.CauseMOData}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(m)
	}
}

func BenchmarkDecodeSetupRequest(b *testing.B) {
	data := Encode(&SetupRequest{Identity: UEIdentity{Kind: IdentityTMSI, TMSI: 0xCAFEBABE}, Cause: cell.CauseMOData})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
