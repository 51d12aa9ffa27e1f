package e2sm

import (
	"reflect"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/asn1lite"
	"github.com/6g-xsec/xsec/internal/cell"
)

// overflowTrigger returns an event trigger whose period, 18 446 744 073
// 710 ms, overflows time.Duration: unchecked, it wraps to 448.384 µs,
// which passes the agent's positive-period check and re-encodes as 0 ms.
func overflowTrigger() []byte {
	var e asn1lite.Encoder
	e.PutUint(1, 18_446_744_073_710)
	return e.Bytes()
}

// FuzzE2SMDecode holds the E2SM decoders the gNB agent runs on bytes a
// RIC sends — EventTrigger in a subscription, ControlRequest in a
// control — and IndicationHeader, to three
// properties on arbitrary bytes: none panics; a value one accepts
// re-encodes to bytes that decode to an equal value; and nothing one
// returns is longer than the input. The seeds are what MobiWatch
// subscribes with, what the analyzer and the mitigation engine control
// with, a UE-scoped and an unscoped indication header, and an
// overflowing period.
func FuzzE2SMDecode(f *testing.F) {
	f.Add(asn1lite.Marshal(&EventTrigger{Period: 20 * time.Millisecond}))
	f.Add(asn1lite.Marshal(&ControlRequest{Action: ControlBlockTMSI, UEID: 4, TMSI: 0xBEEF, Reason: "blind DoS: blocking replayed temporary identity"}))
	f.Add(asn1lite.Marshal(&ControlRequest{Action: ControlUnblockTMSI, UEID: 4, TMSI: cell.TMSI(0xBEEF), Reason: "ttl rollback of block-tmsi"}))
	f.Add(asn1lite.Marshal(&ControlRequest{Action: ControlRequireStrongSecurity, Reason: "null-security session detected: enforcing strong algorithms"}))
	f.Add(asn1lite.Marshal(&IndicationHeader{NodeID: "gnb-001", CollectionStart: time.Unix(1717200000, 5).UTC(), BatchSeq: 12, UEID: 7}))
	f.Add(asn1lite.Marshal(&IndicationHeader{NodeID: "gnb-001", BatchSeq: 13}))
	f.Add(overflowTrigger())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, fresh := range []func() asn1lite.Unmarshaler{
			func() asn1lite.Unmarshaler { return new(EventTrigger) },
			func() asn1lite.Unmarshaler { return new(ControlRequest) },
			func() asn1lite.Unmarshaler { return new(IndicationHeader) },
		} {
			v := fresh()
			if asn1lite.Unmarshal(data, v) != nil {
				continue
			}
			longest := 0
			leaves(reflect.ValueOf(v), func(l reflect.Value) { longest = max(longest, l.Len()) })
			if longest > len(data) {
				t.Fatalf("%d bytes decoded to a %d-long field: %+v", len(data), longest, v)
			}
			back := fresh()
			if err := asn1lite.Unmarshal(asn1lite.Marshal(v.(asn1lite.Marshaler)), back); err != nil || !reflect.DeepEqual(back, v) {
				t.Fatalf("decode∘encode: %+v, %v; want %+v", back, err, v)
			}
		}
	})
}

// leaves calls fn with every string and slice v holds.
func leaves(v reflect.Value, fn func(reflect.Value)) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			leaves(v.Elem(), fn)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			leaves(v.Field(i), fn)
		}
	case reflect.String, reflect.Slice:
		fn(v)
	}
}
