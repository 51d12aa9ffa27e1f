package mobiflow

import (
	"reflect"
	"testing"
	"time"
)

// TestDecodeTraceIntoReusesBuffer pins the slice-reuse contract: decoding
// into a truncated previous batch appends the new records without
// growing a fresh backing array, and matches DecodeTrace.
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

	// DecodeTrace stays equivalent.
	direct, err := DecodeTrace(EncodeTrace(second))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, second) {
		t.Fatalf("DecodeTrace = %+v", direct)
	}

	// Garbage is rejected.
	if _, err := DecodeTraceInto(nil, []byte{0xff, 0x01, 0x02}); err == nil {
		t.Error("garbage accepted")
	}
}

// TestDecodeTraceSizesItsSliceOnce: DecodeTrace costs one allocation more
// than decoding into a buffer that is already large enough (the slice,
// made once at the size the input's own headers give), keeps the records
// before a truncation, and makes no slice for input that holds no record.
func TestDecodeTraceSizesItsSliceOnce(t *testing.T) {
	in := make(Trace, 16)
	for i := range in {
		in[i] = Record{Seq: uint64(i + 1), UEID: 7, Msg: "RRCSetupRequest", Timestamp: time.Unix(1700000000+int64(i), 0).UTC()}
	}
	wire := EncodeTrace(in)
	out, err := DecodeTrace(wire)
	if err != nil || !reflect.DeepEqual(out, in) {
		t.Fatalf("DecodeTrace = %d records, %v", len(out), err)
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
		if _, err := DecodeTrace(wire); err != nil {
			t.Fatal(err)
		}
	})
	if got != floor+1 {
		t.Errorf("DecodeTrace allocates %.0f times, decoding into a sized buffer %.0f: want one more, the slice", got, floor)
	}

	// Cut inside the eleventh record: ten are whole.
	one := len(wire) / len(in) // the records encode to equal lengths
	part, err := DecodeTrace(wire[:10*one+one/2])
	if err == nil || !reflect.DeepEqual(part, in[:10]) || cap(part) != 10 {
		t.Errorf("truncated input: %d records (capacity %d), err %v; want the 10 whole ones and an error", len(part), cap(part), err)
	}
	if none, err := DecodeTrace(wire[:1]); err == nil || none != nil {
		t.Errorf("1-byte input: %v, %v; want no slice and an error", none, err)
	}
}

func BenchmarkDecodeTrace(b *testing.B) {
	in := make(Trace, 16)
	for i := range in {
		in[i] = Record{Seq: uint64(i + 1), UEID: 7, RNTI: 0x4601, Msg: "RRCSetupRequest", Timestamp: time.Unix(1700000000+int64(i), 0).UTC()}
	}
	wire := EncodeTrace(in)
	b.ReportAllocs()
	b.SetBytes(int64(len(wire)))
	for i := 0; i < b.N; i++ {
		if _, err := DecodeTrace(wire); err != nil {
			b.Fatal(err)
		}
	}
}
