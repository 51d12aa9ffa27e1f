package nas

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/6g-xsec/xsec/internal/cell"
)

func allMessages() []Message {
	suci := cell.SUCI{PLMN: cell.TestPLMN, Scheme: 0, MSIN: "0000000001"}
	guti := cell.GUTI{PLMN: cell.TestPLMN, AMFSetID: 3, TMSI: 0xDEADBEEF}
	return []Message{
		&RegistrationRequest{RegType: RegInitial, Identity: MobileIdentity{Type: IdentitySUCI, SUCI: suci}, Capability: 0b1111, FollowOn: true},
		&RegistrationRequest{RegType: RegMobilityUpdate, Identity: MobileIdentity{Type: IdentityGUTI, GUTI: guti}},
		&RegistrationAccept{GUTI: guti},
		&RegistrationComplete{},
		&RegistrationReject{Cause: CauseCongestion},
		&AuthenticationRequest{NgKSI: 1, RAND: [16]byte{1, 2, 3}, AUTN: [16]byte{4, 5, 6}},
		&AuthenticationResponse{RES: []byte{0xAA, 0xBB, 0xCC}},
		&AuthenticationFailure{Cause: CauseAuthFailureMACFail},
		&SecurityModeCommand{CipherAlg: cell.NEA2, IntegAlg: cell.NIA2, NgKSI: 1},
		&SecurityModeComplete{},
		&SecurityModeReject{Cause: CauseSecurityModeRejected},
		&IdentityRequest{Requested: IdentitySUCI},
		&IdentityResponse{Identity: MobileIdentity{Type: IdentitySUCI, SUCI: suci}},
		&ServiceRequest{TMSI: 0xCAFED00D},
		&ServiceAccept{},
		&DeregistrationRequest{SwitchOff: true},
		&DeregistrationAccept{},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, in := range allMessages() {
		out, err := Decode(Encode(in))
		if err != nil {
			t.Fatalf("%s: %v", in.Type(), err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("%s round trip:\n got %#v\nwant %#v", in.Type(), out, in)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("Decode(nil) succeeded")
	}
	if _, err := Decode([]byte{0xEE}); !errors.Is(err, ErrUnknownType) {
		t.Errorf("err = %v, want ErrUnknownType", err)
	}
}

func TestAuthRequestRejectsBadFieldSizes(t *testing.T) {
	// Craft an AuthenticationRequest with a 3-byte RAND.
	msg := &AuthenticationResponse{RES: []byte{1, 2, 3}}
	data := Encode(msg)
	data[0] = byte(TypeAuthenticationRequest) // tagRES(12) != tagRAND(10), so RAND stays zero; now craft directly:
	// Direct: encode a RAND with wrong length using the response's tag space is
	// not possible; build via the real message and truncate instead.
	good := Encode(&AuthenticationRequest{RAND: [16]byte{1}, AUTN: [16]byte{2}})
	bad := good[:len(good)-8] // cut into the AUTN value
	if _, err := Decode(bad); err == nil {
		t.Error("truncated AUTN decoded without error")
	}
	_ = data
}

func TestIdentityVariants(t *testing.T) {
	mi := MobileIdentity{Type: IdentityIMEI, IMEI: "356938035643809"}
	in := &IdentityResponse{Identity: mi}
	out, err := Decode(Encode(in))
	if err != nil {
		t.Fatal(err)
	}
	got := out.(*IdentityResponse)
	if got.Identity.IMEI != mi.IMEI || got.Identity.Type != IdentityIMEI {
		t.Errorf("got %+v", got.Identity)
	}
}

func TestIdentityStrings(t *testing.T) {
	cases := []struct{ got, want string }{
		{IdentitySUCI.String(), "SUCI"},
		{IdentityGUTI.String(), "5G-GUTI"},
		{IdentityIMEI.String(), "IMEI"},
		{IdentityType(9).String(), "IdentityType(9)"},
		{MobileIdentity{}.String(), "identity-none"},
		{MobileIdentity{Type: IdentityIMEI, IMEI: "1"}.String(), "imei-1"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}

func TestDirections(t *testing.T) {
	downlink := map[MsgType]bool{
		TypeRegistrationAccept: true, TypeRegistrationReject: true,
		TypeAuthenticationRequest: true, TypeSecurityModeCommand: true,
		TypeIdentityRequest: true, TypeServiceAccept: true,
		TypeDeregistrationAccept: true,
	}
	for _, m := range allMessages() {
		want := cell.Uplink
		if downlink[m.Type()] {
			want = cell.Downlink
		}
		if m.Direction() != want {
			t.Errorf("%s: direction = %v, want %v", m.Type(), m.Direction(), want)
		}
	}
}

func TestAKAFlow(t *testing.T) {
	var k [KeySize]byte
	copy(k[:], "subscriber-key-1")
	var rand [16]byte
	copy(rand[:], "network-nonce-01")
	const sqn = 42

	// A rogue network with the wrong key issues a different AUTN.
	var rogue [KeySize]byte
	copy(rogue[:], "rogue-key-000000")
	if Challenge(k, rand, sqn) == Challenge(rogue, rand, sqn) {
		t.Error("rogue AUTN equals the genuine one")
	}

	res := DeriveRES(k, rand)
	if len(res) != RESSize {
		t.Fatalf("RES length = %d", len(res))
	}
	if !VerifyRES(k, rand, res) {
		t.Error("genuine RES rejected")
	}
	if VerifyRES(k, rand, DeriveRES(rogue, rand)) {
		t.Error("RES under wrong key accepted")
	}
}

func TestAKADistinctChallenges(t *testing.T) {
	var k [KeySize]byte
	a := Challenge(k, [16]byte{1}, 1)
	b := Challenge(k, [16]byte{2}, 1)
	c := Challenge(k, [16]byte{1}, 2)
	if a == b || a == c {
		t.Error("challenges collide across RAND/SQN changes")
	}
}

// Property: registration requests round-trip for arbitrary identities.
func TestQuickRegistrationRoundTrip(t *testing.T) {
	f := func(msin uint64, useGUTI bool, tmsi uint32, cap uint32, followOn bool) bool {
		in := &RegistrationRequest{Capability: cap, FollowOn: followOn}
		if useGUTI {
			in.RegType = RegMobilityUpdate
			in.Identity = MobileIdentity{Type: IdentityGUTI, GUTI: cell.GUTI{PLMN: cell.TestPLMN, TMSI: cell.TMSI(tmsi)}}
		} else {
			in.RegType = RegInitial
			in.Identity = MobileIdentity{Type: IdentitySUCI, SUCI: cell.SUCI{PLMN: cell.TestPLMN, MSIN: padDigits(msin%1e10, 10)}}
		}
		out, err := Decode(Encode(in))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func padDigits(v uint64, width int) string {
	digits := make([]byte, width)
	for i := width - 1; i >= 0; i-- {
		digits[i] = byte('0' + v%10)
		v /= 10
	}
	return string(digits)
}

// Property: the decoder never panics on arbitrary input.
func TestQuickDecodeRobust(t *testing.T) {
	f := func(data []byte) bool {
		Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeRegistration(b *testing.B) {
	m := &RegistrationRequest{
		Identity: MobileIdentity{Type: IdentitySUCI, SUCI: cell.SUCI{PLMN: cell.TestPLMN, MSIN: "0000000001"}},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(m)
	}
}

func BenchmarkAKADeriveRES(b *testing.B) {
	var k [KeySize]byte
	var rand [16]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DeriveRES(k, rand)
	}
}
