package e2sm

import (
	"reflect"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/asn1lite"
	"github.com/6g-xsec/xsec/internal/mobiflow"
)

func TestEventTriggerRoundTrip(t *testing.T) {
	in := &EventTrigger{Period: 250 * time.Millisecond}
	var out EventTrigger
	if err := asn1lite.Unmarshal(asn1lite.Marshal(in), &out); err != nil {
		t.Fatal(err)
	}
	if out.Period != in.Period {
		t.Errorf("Period = %v", out.Period)
	}
}

func TestIndicationHeaderRoundTrip(t *testing.T) {
	in := &IndicationHeader{NodeID: "gnb-1", CollectionStart: time.Unix(5, 9).UTC(), BatchSeq: 12}
	var out IndicationHeader
	if err := asn1lite.Unmarshal(asn1lite.Marshal(in), &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*in, out) {
		t.Errorf("got %+v, want %+v", out, *in)
	}
}

func TestIndicationMessageRoundTrip(t *testing.T) {
	in := &IndicationMessage{Records: mobiflow.Trace{
		{Seq: 1, Msg: "RRCSetupRequest", Timestamp: time.Unix(0, 0).UTC()},
		{Seq: 2, Msg: "RRCSetup", Timestamp: time.Unix(0, 1).UTC()},
	}}
	out, err := DecodeIndicationMessage(mobiflow.EncodeTrace(in.Records))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in.Records, out.Records) {
		t.Error("records mismatch")
	}
}

func TestDecodeIndicationMessageError(t *testing.T) {
	if _, err := DecodeIndicationMessage([]byte{0x01, 0xFF}); err == nil {
		t.Error("garbage accepted")
	}
}

func TestFunctionDefinitions(t *testing.T) {
	for _, fd := range []*FunctionDefinition{MobiFlowFunctionDefinition(), XRCFunctionDefinition()} {
		var out FunctionDefinition
		if err := asn1lite.Unmarshal(asn1lite.Marshal(fd), &out); err != nil {
			t.Fatal(err)
		}
		if out.Name != fd.Name || out.Description != fd.Description {
			t.Errorf("got %+v", out)
		}
	}
	if MobiFlowRANFunctionID == XRCRANFunctionID {
		t.Error("RAN function IDs collide")
	}
}

func TestControlRequestRoundTrip(t *testing.T) {
	in := &ControlRequest{Action: ControlBlockTMSI, UEID: 4, TMSI: 0xBEEF, Reason: "blind dos suspected"}
	var out ControlRequest
	if err := asn1lite.Unmarshal(asn1lite.Marshal(in), &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*in, out) {
		t.Errorf("got %+v", out)
	}
}

func TestControlActionStrings(t *testing.T) {
	if ControlReleaseUE.String() != "release-ue" ||
		ControlBlockTMSI.String() != "block-tmsi" ||
		ControlRequireStrongSecurity.String() != "require-strong-security" ||
		ControlUnblockTMSI.String() != "unblock-tmsi" ||
		ControlRelaxSecurity.String() != "relax-security" {
		t.Error("control action names wrong")
	}
	if ControlAction(9).String() != "ControlAction(9)" {
		t.Error("unknown action name wrong")
	}
}

func TestControlActionInverse(t *testing.T) {
	cases := []struct {
		action     ControlAction
		inverse    ControlAction
		reversible bool
	}{
		{ControlBlockTMSI, ControlUnblockTMSI, true},
		{ControlRequireStrongSecurity, ControlRelaxSecurity, true},
		{ControlReleaseUE, 0, false},
		{ControlUnblockTMSI, 0, false},
		{ControlRelaxSecurity, 0, false},
	}
	for _, c := range cases {
		inv, ok := c.action.Inverse()
		if ok != c.reversible || (ok && inv != c.inverse) {
			t.Errorf("%s.Inverse() = %v, %v", c.action, inv, ok)
		}
	}
}
