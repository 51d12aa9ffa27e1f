package asn1lite

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestUintRoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 127, 128, 1 << 20, math.MaxUint64}
	var e Encoder
	for i, v := range vals {
		e.PutUint(uint32(i), v)
	}
	d := NewDecoder(e.Bytes())
	for i, want := range vals {
		if !d.Next() {
			t.Fatalf("Next()=false at field %d: %v", i, d.Err())
		}
		if d.Tag() != uint32(i) {
			t.Fatalf("tag = %d, want %d", d.Tag(), i)
		}
		got, err := d.Uint()
		if err != nil {
			t.Fatalf("Uint: %v", err)
		}
		if got != want {
			t.Errorf("field %d = %d, want %d", i, got, want)
		}
	}
	if d.Next() {
		t.Error("Next() = true after last field")
	}
	if d.Err() != nil {
		t.Errorf("Err() = %v", d.Err())
	}
}

func TestIntRoundTrip(t *testing.T) {
	vals := []int64{0, -1, 1, math.MinInt64, math.MaxInt64, -12345}
	var e Encoder
	for _, v := range vals {
		e.PutInt(7, v)
	}
	d := NewDecoder(e.Bytes())
	for _, want := range vals {
		if !d.Next() {
			t.Fatalf("unexpected end: %v", d.Err())
		}
		got, err := d.Int()
		if err != nil {
			t.Fatalf("Int: %v", err)
		}
		if got != want {
			t.Errorf("got %d, want %d", got, want)
		}
	}
}

func TestFloatRoundTrip(t *testing.T) {
	vals := []float64{0, 1.5, -math.Pi, math.MaxFloat64, math.SmallestNonzeroFloat64}
	var e Encoder
	for _, v := range vals {
		e.PutFloat(3, v)
	}
	d := NewDecoder(e.Bytes())
	for _, want := range vals {
		if !d.Next() {
			t.Fatalf("unexpected end: %v", d.Err())
		}
		got, err := d.Float()
		if err != nil {
			t.Fatalf("Float: %v", err)
		}
		if got != want {
			t.Errorf("got %v, want %v", got, want)
		}
	}
}

func TestBoolStringBytes(t *testing.T) {
	var e Encoder
	e.PutBool(1, true)
	e.PutBool(2, false)
	e.PutString(3, "hello 世界")
	e.PutBytes(4, []byte{0xde, 0xad})
	e.PutBytes(5, nil)

	d := NewDecoder(e.Bytes())
	d.Next()
	if v, _ := d.Bool(); !v {
		t.Error("field 1 = false, want true")
	}
	d.Next()
	if v, _ := d.Bool(); v {
		t.Error("field 2 = true, want false")
	}
	d.Next()
	if s, _ := d.String(); s != "hello 世界" {
		t.Errorf("field 3 = %q", s)
	}
	d.Next()
	if b, _ := d.Bytes(); !bytes.Equal(b, []byte{0xde, 0xad}) {
		t.Errorf("field 4 = %x", b)
	}
	d.Next()
	if b, _ := d.Bytes(); len(b) != 0 {
		t.Errorf("field 5 = %x, want empty", b)
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}

func TestNested(t *testing.T) {
	var e Encoder
	e.PutNested(10, func(inner *Encoder) {
		inner.PutUint(1, 42)
		inner.PutNested(2, func(inner2 *Encoder) {
			inner2.PutString(1, "deep")
		})
	})
	d := NewDecoder(e.Bytes())
	if !d.Next() || d.Tag() != 10 {
		t.Fatalf("outer: tag=%d err=%v", d.Tag(), d.Err())
	}
	inner, err := d.Nested()
	if err != nil {
		t.Fatal(err)
	}
	if !inner.Next() {
		t.Fatal("inner field 1 missing")
	}
	if v, _ := inner.Uint(); v != 42 {
		t.Errorf("inner uint = %d", v)
	}
	if !inner.Next() || inner.Tag() != 2 {
		t.Fatal("inner field 2 missing")
	}
	inner2, err := inner.Nested()
	if err != nil {
		t.Fatal(err)
	}
	if !inner2.Next() {
		t.Fatal("inner2 field missing")
	}
	if s, _ := inner2.String(); s != "deep" {
		t.Errorf("deep = %q", s)
	}
}

func TestSkipUnknownTags(t *testing.T) {
	var e Encoder
	e.PutUint(1, 10)
	e.PutString(99, "future extension")
	e.PutUint(2, 20)

	d := NewDecoder(e.Bytes())
	var got []uint64
	for d.Next() {
		switch d.Tag() {
		case 1, 2:
			v, err := d.Uint()
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, v)
		}
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if len(got) != 2 || got[0] != 10 || got[1] != 20 {
		t.Errorf("got %v, want [10 20]", got)
	}
}

func TestTruncatedInput(t *testing.T) {
	var e Encoder
	e.PutString(1, "hello")
	full := e.Bytes()
	for cut := 1; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		for d.Next() {
		}
		if d.Err() == nil {
			// Cutting exactly at a field boundary yields a clean end,
			// but "hello" is a single field so any cut must error.
			t.Errorf("cut=%d: no error on truncated input", cut)
		} else if !errors.Is(d.Err(), ErrTruncated) {
			t.Errorf("cut=%d: err = %v, want ErrTruncated", cut, d.Err())
		}
	}
}

func TestOversizeRejected(t *testing.T) {
	// Hand-craft a header claiming a huge length.
	var e Encoder
	e.buf = append(e.buf, 1)            // tag 1
	e.buf = appendUvarint(e.buf, 1<<30) // length 1 GiB
	e.buf = append(e.buf, make([]byte, 8)...)
	d := NewDecoder(e.buf)
	if d.Next() {
		t.Fatal("Next() = true for oversize value")
	}
	if !errors.Is(d.Err(), ErrOversize) {
		t.Errorf("err = %v, want ErrOversize", d.Err())
	}
}

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func TestBadValueTypes(t *testing.T) {
	var e Encoder
	e.PutString(1, "not a number")
	d := NewDecoder(e.Bytes())
	d.Next()
	if _, err := d.Uint(); !errors.Is(err, ErrBadValue) {
		t.Errorf("Uint on string: err = %v, want ErrBadValue", err)
	}

	e.Reset()
	e.PutBytes(1, []byte{1, 2, 3})
	d = NewDecoder(e.Bytes())
	d.Next()
	if _, err := d.Float(); !errors.Is(err, ErrBadValue) {
		t.Errorf("Float on 3 bytes: err = %v, want ErrBadValue", err)
	}

	e.Reset()
	e.PutBytes(1, []byte{7})
	d = NewDecoder(e.Bytes())
	d.Next()
	if _, err := d.Bool(); !errors.Is(err, ErrBadValue) {
		t.Errorf("Bool on byte 7: err = %v, want ErrBadValue", err)
	}
}

func TestDepthLimit(t *testing.T) {
	// Build MaxDepth+2 nested sequences.
	inner := Encoder{}
	inner.PutUint(1, 1)
	buf := inner.Bytes()
	for i := 0; i < MaxDepth+2; i++ {
		var e Encoder
		e.PutBytes(1, buf)
		buf = append([]byte(nil), e.Bytes()...)
	}
	d := NewDecoder(buf)
	var err error
	for {
		if !d.Next() {
			err = d.Err()
			break
		}
		var sub *Decoder
		sub, err = d.Nested()
		if err != nil {
			break
		}
		d = sub
	}
	if !errors.Is(err, ErrTooDeep) {
		t.Errorf("err = %v, want ErrTooDeep", err)
	}
}

type testMsg struct {
	ID   uint64
	Name string
	Tags []uint64
}

func (m *testMsg) MarshalTLV(e *Encoder) {
	e.PutUint(1, m.ID)
	e.PutString(2, m.Name)
	for _, tag := range m.Tags {
		e.PutUint(3, tag)
	}
}

func (m *testMsg) UnmarshalTLV(d *Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case 1:
			v, err := d.Uint()
			if err != nil {
				return err
			}
			m.ID = v
		case 2:
			s, err := d.String()
			if err != nil {
				return err
			}
			m.Name = s
		case 3:
			v, err := d.Uint()
			if err != nil {
				return err
			}
			m.Tags = append(m.Tags, v)
		}
	}
	return d.Err()
}

func TestMarshalUnmarshal(t *testing.T) {
	in := &testMsg{ID: 9, Name: "ue-1", Tags: []uint64{4, 5, 6}}
	data := Marshal(in)
	var out testMsg
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID || out.Name != in.Name || len(out.Tags) != 3 {
		t.Errorf("round trip = %+v, want %+v", out, in)
	}
}

func TestMessageField(t *testing.T) {
	in := &testMsg{ID: 3, Name: "nested"}
	var e Encoder
	e.PutNested(8, in.MarshalTLV)
	d := NewDecoder(e.Bytes())
	if !d.Next() || d.Tag() != 8 {
		t.Fatalf("missing message field: %v", d.Err())
	}
	var out testMsg
	sub, err := d.Nested()
	if err != nil {
		t.Fatal(err)
	}
	if err := out.UnmarshalTLV(sub); err != nil {
		t.Fatal(err)
	}
	if out.ID != 3 || out.Name != "nested" {
		t.Errorf("got %+v", out)
	}
}

// Property: any (tag, value) combination round-trips for every scalar type.
func TestQuickScalarRoundTrip(t *testing.T) {
	f := func(tag uint32, u uint64, i int64, fl float64, b bool, s string, raw []byte) bool {
		var e Encoder
		e.PutUint(tag, u)
		e.PutInt(tag, i)
		e.PutFloat(tag, fl)
		e.PutBool(tag, b)
		e.PutString(tag, s)
		e.PutBytes(tag, raw)
		d := NewDecoder(e.Bytes())

		if !d.Next() {
			return false
		}
		gu, err := d.Uint()
		if err != nil || gu != u || d.Tag() != tag {
			return false
		}
		if !d.Next() {
			return false
		}
		gi, err := d.Int()
		if err != nil || gi != i {
			return false
		}
		if !d.Next() {
			return false
		}
		gf, err := d.Float()
		if err != nil || (gf != fl && !(math.IsNaN(gf) && math.IsNaN(fl))) {
			return false
		}
		if !d.Next() {
			return false
		}
		gb, err := d.Bool()
		if err != nil || gb != b {
			return false
		}
		if !d.Next() {
			return false
		}
		gs, err := d.String()
		if err != nil || gs != s {
			return false
		}
		if !d.Next() {
			return false
		}
		graw, err := d.Bytes()
		if err != nil || !bytes.Equal(graw, raw) {
			return false
		}
		return d.Err() == nil && !d.Next()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: the decoder never panics and never reads out of bounds on
// arbitrary input bytes.
func TestQuickDecoderRobust(t *testing.T) {
	f := func(data []byte) bool {
		d := NewDecoder(data)
		for d.Next() {
			switch d.Tag() % 5 {
			case 0:
				d.Uint()
			case 1:
				d.Int()
			case 2:
				d.Bool()
			case 3:
				d.String()
			case 4:
				if sub, err := d.Nested(); err == nil {
					for sub.Next() {
					}
				}
			}
		}
		return true // reaching here without panic is the property
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncoderReset(t *testing.T) {
	var e Encoder
	e.PutUint(1, 5)
	if len(e.Bytes()) == 0 {
		t.Fatal("no bytes after Put")
	}
	e.Reset()
	if len(e.Bytes()) != 0 {
		t.Errorf("%d bytes after Reset", len(e.Bytes()))
	}
	e.PutUint(2, 6)
	d := NewDecoder(e.Bytes())
	if !d.Next() || d.Tag() != 2 {
		t.Error("stale data after Reset")
	}
}

func BenchmarkEncodeRecord(b *testing.B) {
	b.ReportAllocs()
	var e Encoder
	for i := 0; i < b.N; i++ {
		e.Reset()
		e.PutUint(1, uint64(i))
		e.PutString(2, "RRCSetupRequest")
		e.PutUint(3, 0x4601)
		e.PutBool(4, true)
	}
}

func BenchmarkDecodeRecord(b *testing.B) {
	var e Encoder
	e.PutUint(1, 123456)
	e.PutString(2, "RRCSetupRequest")
	e.PutUint(3, 0x4601)
	e.PutBool(4, true)
	data := e.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := NewDecoder(data)
		for d.Next() {
		}
		if d.Err() != nil {
			b.Fatal(d.Err())
		}
	}
}
