package mobiflow_test

import (
	"math"
	"reflect"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/e2sm"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/nas"
	"github.com/6g-xsec/xsec/internal/rrc"
)

// edgeRecords are records a delta-coded block has to get right: a zero
// and a backwards Timestamp, a decreasing Seq, the UE changing mid-batch,
// an empty and an unknown message name, a set SUPI and every one-byte
// field at 255.
func edgeRecords() mobiflow.Trace {
	t0 := time.Unix(1_700_000_000, 5).UTC()
	return mobiflow.Trace{
		{Seq: 9, UEID: 1, RNTI: 0x4601, Msg: "RRCSetupRequest", Timestamp: t0},
		{Seq: 5, UEID: 1, RNTI: 0x4601, Msg: "RRCSetup"},
		{Seq: 6, UEID: 2, RNTI: 0x4602, Msg: "", Timestamp: t0.Add(-time.Second)},
		{Seq: 7, UEID: 2, TMSI: 0xCAFEBABE, Msg: "NotARealMessage", SUPI: "imsi-001010000000001", Timestamp: time.Unix(0, 0).UTC()},
		{
			Seq: math.MaxUint64, UEID: math.MaxUint64, Msg: "RegistrationRequest", Timestamp: t0,
			Layer: 255, Dir: 255, RNTI: math.MaxUint16, TMSI: math.MaxUint32,
			CipherAlg: 255, IntegAlg: 255, EstCause: cell.EstablishmentCause(255),
			RRCState: rrc.State(255), NASState: nas.State(255),
			SecurityOn: true, OutOfOrder: true, Retransmission: true,
		},
	}
}

// FuzzDecodeTrace holds the telemetry block decoder — the one
// e2sm.DecodeIndicationMessage runs on every E2 indication, whose input
// MobiWatch then keeps in the SDL verbatim — to four properties on
// arbitrary bytes: decoding never panics; the indication decoder agrees
// with it, and Decode returns its first record; the records it returns
// re-encode to bytes that decode to the same records; and no slice it
// returns holds more records than the input has room for, whatever count
// the block declares. The seeds are benign and attack traces from
// internal/dataset, batched as the gNB agent batches them, and
// edgeRecords, alone and together.
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
	edge := edgeRecords()
	for i := range edge {
		f.Add(mobiflow.EncodeTrace(edge[i : i+1]))
	}
	f.Add(mobiflow.EncodeTrace(edge))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := mobiflow.DecodeTraceInto(nil, data)
		if cap(tr) > len(data)/mobiflow.MinRecordBytes {
			t.Fatalf("%d bytes sized a slice of %d records", len(data), cap(tr))
		}
		msg, msgErr := e2sm.DecodeIndicationMessage(data)
		if (msgErr == nil) != (err == nil) || (err == nil && !reflect.DeepEqual(msg.Records, tr)) {
			t.Fatalf("DecodeIndicationMessage: %+v, err %v; DecodeTraceInto: %d records, err %v", msg, msgErr, len(tr), err)
		}
		if err != nil {
			return
		}
		if first, err := mobiflow.Decode(data); len(tr) > 0 && (err != nil || !reflect.DeepEqual(first, tr[0])) {
			t.Fatalf("Decode of a block: %+v, %v; want its first record %+v", first, err, tr[0])
		}
		back, err := mobiflow.DecodeTraceInto(nil, mobiflow.EncodeTrace(tr))
		if err != nil || !reflect.DeepEqual(back, tr) {
			t.Fatalf("decode∘encode: %+v, %v; want %+v", back, err, tr)
		}
	})
}
