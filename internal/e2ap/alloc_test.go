package e2ap

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/6g-xsec/xsec/internal/asn1lite"
)

func sampleIndication() *Message {
	return &Message{
		Type:              TypeIndication,
		TransactionID:     42,
		RequestID:         RequestID{Requestor: 100, Instance: 1},
		RANFunctionID:     2,
		ActionID:          1,
		IndicationSN:      77,
		IndicationHeader:  bytes.Repeat([]byte("h"), 32),
		IndicationMessage: bytes.Repeat([]byte("m"), 256),
	}
}

func TestAppendEncodeMatchesEncode(t *testing.T) {
	for _, m := range sampleMessages() {
		want := asn1lite.Marshal(m)
		got := AppendEncode(nil, m)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: AppendEncode != asn1lite.Marshal", m.Type)
		}
		// Appending after a prefix keeps the prefix intact.
		withPrefix := AppendEncode([]byte("prefix"), m)
		if !bytes.Equal(withPrefix, append([]byte("prefix"), want...)) {
			t.Errorf("%s: AppendEncode did not append after prefix", m.Type)
		}
	}
}

func TestDecodeIntoMatchesDecode(t *testing.T) {
	var reused Message
	for _, in := range sampleMessages() {
		data := AppendEncode(nil, in)
		want, err := Decode(data)
		if err != nil {
			t.Fatalf("%s: Decode: %v", in.Type, err)
		}
		if err := DecodeInto(data, &reused); err != nil {
			t.Fatalf("%s: DecodeInto: %v", in.Type, err)
		}
		// Compare semantically: DecodeInto may leave empty-non-nil byte
		// fields where Decode leaves nil (documented), so normalize both
		// sides to nil-for-empty before DeepEqual.
		a, b := normalizeEmpty(want), normalizeEmpty(&reused)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: DecodeInto mismatch\n got %+v\nwant %+v", in.Type, b, a)
		}
	}
}

func TestDecodeIntoRejectsInvalid(t *testing.T) {
	var m Message
	if err := DecodeInto([]byte{0xff}, &m); err == nil {
		t.Error("DecodeInto accepted garbage")
	}
	if err := DecodeInto(nil, &m); err == nil {
		t.Error("DecodeInto accepted empty input (invalid type)")
	}
}

func normalizeEmpty(m *Message) *Message {
	out := *m
	norm := func(b []byte) []byte {
		if len(b) == 0 {
			return nil
		}
		return b
	}
	out.EventTrigger = norm(out.EventTrigger)
	out.IndicationHeader = norm(out.IndicationHeader)
	out.IndicationMessage = norm(out.IndicationMessage)
	out.ControlHeader = norm(out.ControlHeader)
	out.ControlMessage = norm(out.ControlMessage)
	if len(out.RANFunctions) == 0 {
		out.RANFunctions = nil
	}
	if len(out.Actions) == 0 {
		out.Actions = nil
	}
	if len(out.AdmittedActions) == 0 {
		out.AdmittedActions = nil
	}
	return &out
}

// TestIndicationMarshalZeroAlloc is the acceptance gate for the pooled
// codec: encoding a RIC Indication into a warm buffer must not allocate.
func TestIndicationMarshalZeroAlloc(t *testing.T) {
	m := sampleIndication()
	buf := AppendEncode(nil, m) // warm the buffer to working capacity
	if allocs := testing.AllocsPerRun(200, func() {
		buf = AppendEncode(buf[:0], m)
	}); allocs != 0 {
		t.Errorf("AppendEncode(indication) = %.1f allocs/op, want 0", allocs)
	}
}

// TestIndicationUnmarshalZeroAlloc asserts the decode side: a reused
// Message reaches zero allocations per PDU once its fields are warm.
func TestIndicationUnmarshalZeroAlloc(t *testing.T) {
	data := AppendEncode(nil, sampleIndication())
	var m Message
	if err := DecodeInto(data, &m); err != nil { // warm field capacity
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := DecodeInto(data, &m); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("DecodeInto(indication) = %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkAppendEncodeIndication(b *testing.B) {
	m := sampleIndication()
	buf := AppendEncode(nil, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendEncode(buf[:0], m)
	}
	_ = buf
}

func BenchmarkDecodeIntoIndication(b *testing.B) {
	data := AppendEncode(nil, sampleIndication())
	var m Message
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeInto(data, &m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndpointSendIndication(b *testing.B) {
	a, peer := Pipe()
	defer a.Close()
	defer peer.Close()
	go func() {
		for {
			if _, err := peer.Recv(); err != nil {
				return
			}
		}
	}()
	m := sampleIndication()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(m); err != nil {
			b.Fatal(err)
		}
	}
}
