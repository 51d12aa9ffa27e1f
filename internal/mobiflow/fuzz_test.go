package mobiflow_test

import (
	"reflect"
	"testing"

	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/e2sm"
	"github.com/6g-xsec/xsec/internal/mobiflow"
)

// FuzzDecodeTrace holds the telemetry batch decoder — the one
// e2sm.DecodeIndicationMessage runs on every E2 indication, whose input
// MobiWatch then keeps in the SDL verbatim — to three properties on
// arbitrary bytes: decoding never panics, and the indication decoder
// agrees with it, as Decode does on a batch's first record; the records
// it returns re-encode to bytes that decode
// to the same records; and the slice it sizes from its count pass holds
// no more records than the input has room for, two bytes (a tag and a
// length) being the least a record field takes. The seeds are benign and
// attack traces from internal/dataset, batched as the gNB agent batches
// them.
func FuzzDecodeTrace(f *testing.F) {
	benign, err := dataset.GenerateBenign(dataset.BenignConfig{Sessions: 4, Fleet: 2, Seed: 11})
	if err != nil {
		f.Fatal(err)
	}
	mixed, err := dataset.GenerateMixed(dataset.MixedConfig{
		BenignConfig:       dataset.BenignConfig{Fleet: 2, Seed: 12},
		InstancesPerAttack: 1,
	})
	if err != nil {
		f.Fatal(err)
	}
	for _, tr := range []mobiflow.Trace{benign, mixed.Trace} {
		for _, n := range []int{1, 9, 64} {
			f.Add(mobiflow.EncodeTrace(tr[:min(n, len(tr))]))
		}
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := mobiflow.DecodeTrace(data)
		if cap(tr) > len(data)/2 {
			t.Fatalf("%d bytes sized a slice of %d records", len(data), cap(tr))
		}
		msg, msgErr := e2sm.DecodeIndicationMessage(data)
		if (msgErr == nil) != (err == nil) || (err == nil && !reflect.DeepEqual(msg.Records, tr)) {
			t.Fatalf("DecodeIndicationMessage: %+v, err %v; DecodeTrace: %d records, err %v", msg, msgErr, len(tr), err)
		}
		if err != nil {
			return
		}
		if first, err := mobiflow.Decode(data); len(tr) > 0 && (err != nil || !reflect.DeepEqual(first, tr[0])) {
			t.Fatalf("Decode of a batch: %+v, %v; want its first record %+v", first, err, tr[0])
		}
		back, err := mobiflow.DecodeTrace(mobiflow.EncodeTrace(tr))
		if err != nil || !reflect.DeepEqual(back, tr) {
			t.Fatalf("decode∘encode: %+v, %v; want %+v", back, err, tr)
		}
	})
}
