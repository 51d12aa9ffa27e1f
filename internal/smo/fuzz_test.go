package smo

import (
	"reflect"
	"testing"
	"time"
)

// FuzzParsePolicy holds the A1 wire decoder to three properties on
// arbitrary bytes: it does not panic; a policy it accepts re-encodes to
// bytes that parse to an equal policy; and a TTL it accepts that sets one
// (> 0) converts to a positive time.Duration. The seeds are the wire form
// of the policies the framework's tests put, one with retired keys, one
// that clears the deny list, and a TTL one millisecond past the range.
func FuzzParsePolicy(f *testing.F) {
	at := time.Date(2024, 6, 1, 12, 0, 0, 5, time.UTC)
	for _, p := range []Policy{
		{ID: "sec-1", ThresholdPercentile: 95, MitigationMode: "enforce", UpdatedAt: at},
		{ID: "p", MitigationMode: "dry-run", DenyActions: []string{"release-ue"}, MitigationTTLMS: 1234, UpdatedAt: at},
		{ID: "p", DenyActions: []string{}, UpdatedAt: at},
	} {
		data, err := p.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"id":"sec-0","threshold_percentile":97,"auto_respond":true,"report_period_ms":100}`))
	f.Add([]byte(`{"id":"ttl","mitigation_ttl_ms":9223372036855}`))
	f.Add([]byte(`{"id":"ttl","mitigation_ttl_ms":9223372036854,"updated_at":"2024-06-01T14:00:00+02:00"}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePolicy(data)
		if err != nil {
			return
		}
		if p.MitigationTTLMS > 0 && time.Duration(p.MitigationTTLMS)*time.Millisecond <= 0 {
			t.Fatalf("accepted TTL of %d ms converts to %v", p.MitigationTTLMS, time.Duration(p.MitigationTTLMS)*time.Millisecond)
		}
		enc, err := p.Encode()
		if err != nil {
			t.Fatalf("accepted %+v does not encode: %v", p, err)
		}
		back, err := ParsePolicy(enc)
		if err != nil {
			t.Fatalf("re-encoded %q does not parse: %v", enc, err)
		}
		// A parsed time keeps its zone offset in a Location of its own, so
		// instants compare with Equal and the rest field by field.
		if !back.UpdatedAt.Equal(p.UpdatedAt) {
			t.Fatalf("UpdatedAt %v re-parses as %v", p.UpdatedAt, back.UpdatedAt)
		}
		back.UpdatedAt, p.UpdatedAt = time.Time{}, time.Time{}
		if !reflect.DeepEqual(back, p) {
			t.Fatalf("decode∘encode: %+v; want %+v", back, p)
		}
	})
}
