package e2ap

import (
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleMessages() []*Message {
	return []*Message{
		{
			Type:   TypeE2SetupRequest,
			NodeID: "gnb-001",
			RANFunctions: []RANFunction{
				{ID: 2, OID: "1.3.6.1.4.1.53148.1.2.2.100", Definition: []byte("mobiflow")},
				{ID: 3, OID: "1.3.6.1.4.1.53148.1.2.2.2", Definition: []byte("kpm")},
			},
		},
		{Type: TypeE2SetupResponse, NodeID: "ric-0"},
		{Type: TypeE2SetupFailure, Cause: "duplicate node"},
		{
			Type:          TypeSubscriptionRequest,
			RequestID:     RequestID{Requestor: 100, Instance: 1},
			RANFunctionID: 2,
			EventTrigger:  []byte{1, 2},
			Actions: []Action{
				{ID: 1, Type: ActionReport, Definition: []byte{9}},
				{ID: 2, Type: ActionPolicy, Definition: []byte{}},
			},
		},
		{
			Type:            TypeSubscriptionResponse,
			RequestID:       RequestID{Requestor: 100, Instance: 1},
			RANFunctionID:   2,
			AdmittedActions: []uint16{1, 2},
		},
		{Type: TypeSubscriptionFailure, RequestID: RequestID{Requestor: 100, Instance: 1}, Cause: "unknown RAN function"},
		{Type: TypeSubscriptionDeleteRequest, RequestID: RequestID{Requestor: 100, Instance: 1}, RANFunctionID: 2},
		{Type: TypeSubscriptionDeleteResponse, RequestID: RequestID{Requestor: 100, Instance: 1}},
		{
			Type:              TypeIndication,
			RequestID:         RequestID{Requestor: 100, Instance: 1},
			RANFunctionID:     2,
			ActionID:          1,
			IndicationSN:      77,
			IndicationHeader:  []byte("hdr"),
			IndicationMessage: []byte("telemetry-payload"),
		},
		{
			Type:           TypeControlRequest,
			RequestID:      RequestID{Requestor: 100, Instance: 2},
			RANFunctionID:  2,
			ControlHeader:  []byte("ue=5"),
			ControlMessage: []byte("release"),
		},
		{Type: TypeControlAck, RequestID: RequestID{Requestor: 100, Instance: 2}},
		{Type: TypeControlFailure, RequestID: RequestID{Requestor: 100, Instance: 2}, Cause: "no such UE"},
		{Type: TypeErrorIndication, Cause: "decode error"},
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	for _, in := range sampleMessages() {
		in.TransactionID = 42
		out, err := Decode(AppendEncode(nil, in))
		if err != nil {
			t.Fatalf("%s: %v", in.Type, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("%s round trip:\n got %#v\nwant %#v", in.Type, out, in)
		}
	}
}

func TestDecodeRejectsInvalidType(t *testing.T) {
	m := &Message{Type: MessageType(99)}
	if _, err := Decode(AppendEncode(nil, m)); !errors.Is(err, ErrBadMessage) {
		t.Errorf("err = %v, want ErrBadMessage", err)
	}
	if _, err := Decode([]byte{}); err == nil {
		t.Error("empty PDU accepted")
	}
}

func TestTypeNames(t *testing.T) {
	if TypeIndication.String() != "RICIndication" {
		t.Errorf("got %q", TypeIndication.String())
	}
	if MessageType(99).String() != "MessageType(99)" {
		t.Errorf("got %q", MessageType(99).String())
	}
	if ActionReport.String() != "report" || ActionPolicy.String() != "policy" || ActionInsert.String() != "insert" {
		t.Error("action names wrong")
	}
	if ActionType(9).String() != "ActionType(9)" {
		t.Error("unknown action name wrong")
	}
	if (RequestID{1, 2}).String() != "1/2" {
		t.Error("RequestID format wrong")
	}
}

func TestEndpointSendRecv(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	go func() {
		a.Send(&Message{Type: TypeE2SetupRequest, NodeID: "gnb-7"})
	}()
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypeE2SetupRequest || got.NodeID != "gnb-7" {
		t.Errorf("got %+v", got)
	}
	if got.TransactionID == 0 {
		t.Error("transaction ID not assigned")
	}
}

func TestEndpointTransactionIDsIncrease(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	go func() {
		for i := 0; i < 3; i++ {
			a.Send(&Message{Type: TypeErrorIndication})
		}
	}()
	var last uint64
	for i := 0; i < 3; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.TransactionID <= last {
			t.Errorf("txn %d after %d", m.TransactionID, last)
		}
		last = m.TransactionID
	}
}

func TestEndpointRecvAfterClose(t *testing.T) {
	a, b := Pipe()
	a.Close()
	if _, err := b.Recv(); !errors.Is(err, io.EOF) {
		t.Errorf("err = %v, want io.EOF", err)
	}
	b.Close()
}

func TestEndpointExplicitTransactionPreserved(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	go a.Send(&Message{Type: TypeControlAck, TransactionID: 999})
	m, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.TransactionID != 999 {
		t.Errorf("txn = %d", m.TransactionID)
	}
}

// Property: indication payloads of arbitrary content round-trip intact.
func TestQuickIndicationRoundTrip(t *testing.T) {
	f := func(req, inst uint32, fn uint16, sn uint64, hdr, payload []byte) bool {
		in := &Message{
			Type: TypeIndication, TransactionID: 1,
			RequestID:        RequestID{Requestor: req, Instance: inst},
			RANFunctionID:    fn,
			IndicationSN:     sn,
			IndicationHeader: hdr, IndicationMessage: payload,
		}
		if in.IndicationHeader == nil {
			in.IndicationHeader = []byte{}
		}
		if in.IndicationMessage == nil {
			in.IndicationMessage = []byte{}
		}
		out, err := Decode(AppendEncode(nil, in))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Decode never panics on arbitrary bytes.
func TestQuickDecodeRobust(t *testing.T) {
	f := func(data []byte) bool {
		Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDecodeIndication(b *testing.B) {
	data := AppendEncode(nil, &Message{
		Type: TypeIndication, TransactionID: 1,
		RequestID: RequestID{100, 1}, RANFunctionID: 2,
		IndicationHeader:  []byte("hdr"),
		IndicationMessage: make([]byte, 256),
	})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
