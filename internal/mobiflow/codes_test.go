package mobiflow

import (
	"reflect"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/nas"
	"github.com/6g-xsec/xsec/internal/rrc"
)

// goldenCodes is the message code table as blocks carry it. A code, once
// on the wire, names its message for good: this list only ever grows.
var goldenCodes = []struct {
	code byte
	name string
}{
	{1, "RRCSetupRequest"}, {2, "RRCSetup"}, {3, "RRCSetupComplete"}, {4, "RRCReject"},
	{5, "RRCSecurityModeCommand"}, {6, "RRCSecurityModeComplete"}, {7, "RRCSecurityModeFailure"},
	{8, "RRCReconfiguration"}, {9, "RRCReconfigurationComplete"}, {10, "ULInformationTransfer"},
	{11, "DLInformationTransfer"}, {12, "RRCReestablishmentRequest"}, {13, "RRCReestablishment"},
	{14, "RRCRelease"},
	{65, "RegistrationRequest"}, {66, "RegistrationAccept"}, {67, "RegistrationComplete"},
	{68, "RegistrationReject"}, {69, "AuthenticationRequest"}, {70, "AuthenticationResponse"},
	{71, "AuthenticationFailure"}, {72, "NASSecurityModeCommand"}, {73, "NASSecurityModeComplete"},
	{74, "NASSecurityModeReject"}, {75, "IdentityRequest"}, {76, "IdentityResponse"},
	{77, "ServiceRequest"}, {78, "ServiceAccept"}, {79, "DeregistrationRequest"},
	{80, "DeregistrationAccept"},
}

// codeOnWire is the code byte of r's one-record block (format, count,
// flags, code), without the zero-Timestamp bit.
func codeOnWire(r Record) byte { return Encode(&r)[3] &^ codeZeroTime }

// TestMessageCodesAreStable pins every rrc and nas message type to its
// code and name: reordering either enum moves a name off its code and
// fails here, and a message added to the end of an enum takes a new code
// after every pinned one of its layer.
func TestMessageCodesAreStable(t *testing.T) {
	golden := map[string]byte{}
	for _, g := range goldenCodes {
		golden[g.name] = g.code
		if got := codeOnWire(Record{Msg: g.name}); got != g.code || codeNames[g.code] != g.name {
			t.Errorf("%s is code %d on the wire and code %d names %q; pinned as code %d", g.name, got, g.code, codeNames[g.code], g.code)
		}
	}
	coded := 0
	check := func(name string, code, lastPinned byte) {
		coded++
		if got := codeOnWire(Record{Msg: name}); got != code {
			t.Errorf("%s is code %d on the wire, want %d", name, got, code)
		}
		if _, pinned := golden[name]; !pinned && code <= lastPinned {
			t.Errorf("new message %s took code %d, inside the pinned codes of its layer (≤ %d)", name, code, lastPinned)
		}
	}
	for m := rrc.MsgType(1); m.Valid(); m++ {
		check(m.String(), byte(m), 14)
	}
	for m := nas.MsgType(1); m.Valid(); m++ {
		check(m.String(), nasCodeBase+byte(m), 80)
	}
	if len(nameCodes) != coded {
		t.Errorf("%d message codes for %d rrc and nas message types", len(nameCodes), coded)
	}
}

// TestUnknownMessageIsALiteral: a name outside the table travels as
// itself and is the one allocation its decode makes; a known name decodes
// from its code with none.
func TestUnknownMessageIsALiteral(t *testing.T) {
	for _, c := range []struct {
		msg    string
		code   byte
		allocs float64
	}{
		{"RRCSetupRequest", 1, 0},
		{"RRCSetupRequestX", codeLiteral, 1},
		{"", codeLiteral, 0},
	} {
		in := Record{Seq: 3, UEID: 4, Msg: c.msg, Timestamp: time.Unix(1_700_000_000, 0).UTC()}
		wire := Encode(&in)
		if got := codeOnWire(in); got != c.code {
			t.Errorf("%q is code %d on the wire, want %d", c.msg, got, c.code)
		}
		out, err := Decode(wire)
		if err != nil || !reflect.DeepEqual(out, in) {
			t.Errorf("%q round trip: %+v, %v", c.msg, out, err)
		}
		if got := testing.AllocsPerRun(100, func() { out, _ = Decode(wire) }); got != c.allocs {
			t.Errorf("decoding a record named %q allocates %.0f times, want %.0f", c.msg, got, c.allocs)
		}
	}
}
