package asn1lite

import (
	"bytes"
	"testing"
)

type pair struct{ A, B uint64 }

func (p *pair) MarshalTLV(e *Encoder) {
	e.PutUint(1, p.A)
	e.PutUint(2, p.B)
}

// TestPutNestedReuse proves the recycled child encoder produces the same
// bytes as fresh encoders, including for re-entrant use of the outer
// encoder inside the nested closure.
func TestPutNestedReuse(t *testing.T) {
	var reused Encoder
	for round := 0; round < 3; round++ {
		reused.Reset()
		reused.PutNested(1, func(inner *Encoder) {
			inner.PutUint(1, uint64(round))
			inner.PutNested(2, func(deeper *Encoder) {
				deeper.PutString(1, "deep")
			})
		})
		// Re-entrant: the closure encodes a sibling through the OUTER
		// encoder while the child is detached.
		reused.PutNested(3, func(inner *Encoder) {
			reused.PutUint(4, 99)
			inner.PutBool(1, true)
		})

		var fresh Encoder
		fresh.PutNested(1, func(inner *Encoder) {
			inner.PutUint(1, uint64(round))
			inner.PutNested(2, func(deeper *Encoder) {
				deeper.PutString(1, "deep")
			})
		})
		fresh.PutNested(3, func(inner *Encoder) {
			fresh.PutUint(4, 99)
			inner.PutBool(1, true)
		})
		if !bytes.Equal(reused.Bytes(), fresh.Bytes()) {
			t.Fatalf("round %d: reused %x != fresh %x", round, reused.Bytes(), fresh.Bytes())
		}
	}
}

func TestPutNestedZeroAllocWhenWarm(t *testing.T) {
	var e Encoder
	p := &pair{A: 1, B: 2}
	e.PutNested(1, p.MarshalTLV) // warm the child encoder
	if allocs := testing.AllocsPerRun(200, func() {
		e.Reset()
		e.PutNested(1, p.MarshalTLV)
	}); allocs != 0 {
		t.Errorf("warm PutNested = %.1f allocs/op, want 0", allocs)
	}
}

func TestDecoderReset(t *testing.T) {
	data1 := Marshal(&pair{A: 1, B: 2})
	data2 := Marshal(&pair{A: 3, B: 4})
	var d Decoder
	for i, tc := range []struct {
		data []byte
		want pair
	}{{data1, pair{1, 2}}, {data2, pair{3, 4}}, {data1, pair{1, 2}}} {
		d.Reset(tc.data)
		var got pair
		for d.Next() {
			switch d.Tag() {
			case 1:
				got.A, _ = d.Uint()
			case 2:
				got.B, _ = d.Uint()
			}
		}
		if err := d.Err(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if got != tc.want {
			t.Errorf("step %d: got %+v, want %+v", i, got, tc.want)
		}
	}
	// Reset after an error clears the error state.
	d.Reset([]byte{0xff})
	for d.Next() {
	}
	if d.Err() == nil {
		t.Fatal("expected error on truncated input")
	}
	d.Reset(data1)
	if !d.Next() || d.Err() != nil {
		t.Error("Reset did not clear decoder error state")
	}
}
