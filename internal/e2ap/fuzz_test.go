package e2ap

import (
	"reflect"
	"testing"
)

// canonical is normalizeEmpty down to the nested definitions: an absent
// and an empty byte field mean the same message.
func canonical(m *Message) *Message {
	out := normalizeEmpty(m)
	out.RANFunctions = append([]RANFunction(nil), out.RANFunctions...)
	for i := range out.RANFunctions {
		if len(out.RANFunctions[i].Definition) == 0 {
			out.RANFunctions[i].Definition = nil
		}
	}
	out.Actions = append([]Action(nil), out.Actions...)
	for i := range out.Actions {
		if len(out.Actions[i].Definition) == 0 {
			out.Actions[i].Definition = nil
		}
	}
	return out
}

// FuzzE2APDecode holds DecodeInto — the envelope the RIC and the gNB agent
// decode every PDU with, an E2 indication around each telemetry block — to
// the properties FuzzDecodeTrace holds the block to, on arbitrary bytes:
// it never panics and agrees with Decode; a message it accepts re-encodes
// to bytes that decode to the same message; and nothing it returns is
// larger than the input holds: a byte field is a slice of it, and a
// repeated field's element takes a tag and a length byte at least. The
// seeds are the round-trip test's messages.
func FuzzE2APDecode(f *testing.F) {
	for _, m := range sampleMessages() {
		f.Add(AppendEncode(nil, m))
	}
	f.Add(AppendEncode(nil, sampleIndication()))
	f.Add([]byte{})

	var reused Message
	f.Fuzz(func(t *testing.T, data []byte) {
		err := DecodeInto(data, &reused)
		want, wantErr := Decode(data)
		if (err == nil) != (wantErr == nil) || (err == nil && !reflect.DeepEqual(canonical(&reused), canonical(want))) {
			t.Fatalf("DecodeInto: %+v, err %v; Decode: %+v, err %v", reused, err, want, wantErr)
		}
		if n := len(reused.RANFunctions) + len(reused.Actions) + len(reused.AdmittedActions); n > len(data)/2 {
			t.Fatalf("%d bytes decoded to %d repeated elements", len(data), n)
		}
		for _, b := range [][]byte{reused.EventTrigger, reused.IndicationHeader, reused.IndicationMessage, reused.ControlHeader, reused.ControlMessage} {
			if len(b) > len(data) {
				t.Fatalf("%d bytes decoded to a %d-byte field", len(data), len(b))
			}
		}
		if err != nil {
			return
		}
		owned, err := decodeOwned(append([]byte(nil), data...))
		if err != nil || !reflect.DeepEqual(canonical(owned), canonical(want)) {
			t.Fatalf("decodeOwned: %+v, err %v; Decode: %+v", owned, err, want)
		}
		back, err := Decode(AppendEncode(nil, want))
		if err != nil || !reflect.DeepEqual(canonical(back), canonical(want)) {
			t.Fatalf("decode∘encode: %+v, %v; want %+v", back, err, want)
		}
	})
}
