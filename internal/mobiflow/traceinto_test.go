package mobiflow

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/asn1lite"
)

// TestDecodeTraceIntoReusesBuffer pins the slice-reuse contract: decoding
// into a truncated previous batch appends the new records without
// growing a fresh backing array, and matches decoding into nil.
func TestDecodeTraceIntoReusesBuffer(t *testing.T) {
	mk := func(n int, base uint64) Trace {
		tr := make(Trace, n)
		for i := range tr {
			tr[i] = Record{
				Seq: base + uint64(i), UEID: 7, Msg: "RRCSetupRequest",
				Timestamp: time.Unix(1700000000+int64(i), 0).UTC(),
			}
		}
		return tr
	}

	first := mk(6, 1)
	buf, err := DecodeTraceInto(nil, EncodeTrace(first))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(buf, first) {
		t.Fatalf("first decode = %+v", buf)
	}

	// Second, smaller batch into the truncated slice: same backing array.
	second := mk(4, 100)
	prev := &buf[:1][0]
	buf, err = DecodeTraceInto(buf[:0], EncodeTrace(second))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(buf, second) {
		t.Fatalf("second decode = %+v", buf)
	}
	if &buf[0] != prev {
		t.Error("reused decode grew a new backing array")
	}

	// Decoding into nil stays equivalent.
	direct, err := DecodeTraceInto(nil, EncodeTrace(second))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, second) {
		t.Fatalf("DecodeTraceInto(nil, …) = %+v", direct)
	}

	// Garbage is rejected.
	if _, err := DecodeTraceInto(nil, []byte{0xff, 0x01, 0x02}); err == nil {
		t.Error("garbage accepted")
	}
}

// TestDecodeTraceSizesItsSliceOnce: decoding into nil costs one allocation more
// than decoding into a buffer that is already large enough (the slice,
// made once at the block's declared count), keeps the records before a
// truncation, refuses a count the input has no room for before sizing
// anything from it, and makes no slice for input that holds no record.
func TestDecodeTraceSizesItsSliceOnce(t *testing.T) {
	in := make(Trace, 16)
	for i := range in {
		in[i] = Record{Seq: uint64(i + 1), UEID: 7, Msg: "RRCSetupRequest", Timestamp: time.Unix(1700000000+int64(i), 0).UTC()}
	}
	wire := EncodeTrace(in)
	out, err := DecodeTraceInto(nil, wire)
	if err != nil || !reflect.DeepEqual(out, in) {
		t.Fatalf("DecodeTraceInto(nil, …) = %d records, %v", len(out), err)
	}
	if cap(out) != len(in) {
		t.Errorf("16 records decoded into a slice of capacity %d", cap(out))
	}
	buf := make(Trace, 0, len(in))
	floor := testing.AllocsPerRun(200, func() {
		if _, err := DecodeTraceInto(buf[:0], wire); err != nil {
			t.Fatal(err)
		}
	})
	got := testing.AllocsPerRun(200, func() {
		if _, err := DecodeTraceInto(nil, wire); err != nil {
			t.Fatal(err)
		}
	})
	if floor != 0 || got != 1 {
		t.Errorf("DecodeTraceInto(nil, …) allocates %.0f times, decoding into a sized buffer %.0f: want 1 (the slice) and 0", got, floor)
	}

	// Cut inside the eleventh record: ten are whole. The header is the
	// same two bytes for 10 and 16 records.
	cut := len(EncodeTrace(in[:10])) + 2
	part, err := DecodeTraceInto(nil, wire[:cut])
	if err == nil || !reflect.DeepEqual(part, in[:10]) || cap(part) != len(in) {
		t.Errorf("truncated input: %d records (capacity %d), err %v; want the 10 whole ones and an error", len(part), cap(part), err)
	}
	// Claim more records than the bytes after the count can hold.
	lying := append([]byte(nil), wire[:cut]...)
	lying[1] = byte((cut-2)/minRecordBytes + 1)
	if none, err := DecodeTraceInto(nil, lying); err == nil || none != nil {
		t.Errorf("a count of %d in %d bytes: %d records, %v; want no slice and an error", lying[1], cut-2, len(none), err)
	}
	if none, err := DecodeTraceInto(nil, wire[:1]); err == nil || none != nil {
		t.Errorf("1-byte input: %v, %v; want no slice and an error", none, err)
	}
}

// TestAppendTraceAllocatesNothingWarm: the gNB agent encodes every
// indication into one long-lived encoder, which once grown allocates
// nothing and writes what EncodeTrace writes.
func TestAppendTraceAllocatesNothingWarm(t *testing.T) {
	in := make(Trace, 16)
	for i := range in {
		in[i] = Record{Seq: uint64(i + 1), UEID: 7, SUPI: "imsi-001010000000001", Msg: "RRCSetupRequest",
			Timestamp: time.Unix(1700000000+int64(i), 0).UTC()}
	}
	var e asn1lite.Encoder
	AppendTrace(&e, in)
	if got := testing.AllocsPerRun(100, func() { e.Reset(); AppendTrace(&e, in) }); got != 0 {
		t.Errorf("warm AppendTrace allocates %.0f times, want 0", got)
	}
	if !bytes.Equal(e.Bytes(), EncodeTrace(in)) {
		t.Error("AppendTrace and EncodeTrace write different blocks")
	}
}
