// Package asn1lite implements a compact, deterministic tag-length-value
// (TLV) codec used by the protocol packages in this repository (RRC, NAS,
// E2AP, E2SM).
//
// The real O-RAN and 3GPP protocols are specified in ASN.1 and encoded with
// aligned PER. This repository substitutes a small TLV encoding with the
// same structural properties — typed fields, nesting, extensibility by tag,
// strict bounds checking on decode — so that the framework exercises a
// realistic encode/decode path without an external ASN.1 compiler (see
// DESIGN.md §1).
//
// Wire format: each item is
//
//	tag    uvarint
//	length uvarint
//	value  length bytes
//
// Value interpretation (uint, zigzag int, UTF-8 string, raw bytes, nested
// TLV sequence) is a contract between the encoder and decoder of a given
// message type, exactly as with ASN.1 field types.
package asn1lite

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Encoding limits. Decoders reject anything beyond these bounds so a
// malformed or adversarial frame cannot cause pathological allocation.
const (
	// MaxValueLen bounds the length of a single TLV value.
	MaxValueLen = 1 << 24
	// MaxDepth bounds nesting of TLV sequences.
	MaxDepth = 32
)

// Errors returned by the decoder. All decode failures wrap one of these, so
// callers can classify with errors.Is.
var (
	ErrTruncated = errors.New("asn1lite: truncated input")
	ErrOversize  = errors.New("asn1lite: value exceeds size bound")
	ErrBadValue  = errors.New("asn1lite: malformed value")
	ErrTooDeep   = errors.New("asn1lite: nesting too deep")
)

// Marshaler is implemented by message types that can append themselves to an
// Encoder.
type Marshaler interface {
	MarshalTLV(e *Encoder)
}

// Unmarshaler is implemented by message types that can parse themselves from
// a Decoder positioned at the start of their field sequence.
type Unmarshaler interface {
	UnmarshalTLV(d *Decoder) error
}

// Marshal encodes m into a fresh byte slice.
func Marshal(m Marshaler) []byte {
	var e Encoder
	m.MarshalTLV(&e)
	return e.Bytes()
}

// Unmarshal decodes data into m.
func Unmarshal(data []byte, m Unmarshaler) error {
	d := NewDecoder(data)
	return m.UnmarshalTLV(d)
}

// An Encoder builds a TLV byte sequence. The zero value is ready to use.
type Encoder struct {
	buf []byte
	// child is the nested encoder reused across PutNested calls, so
	// SEQUENCE-typed fields stop costing one Encoder + buffer per call
	// once the deepest nesting level has been visited.
	child *Encoder
}

// NewEncoder returns an Encoder that appends to buf (which may be nil).
// Returning a value (not a pointer) lets callers keep the encoder on the
// stack for allocation-free append-style encoding.
func NewEncoder(buf []byte) Encoder { return Encoder{buf: buf} }

// Bytes returns the encoded sequence. The returned slice aliases the
// encoder's buffer; it remains valid until the next Put call.
func (e *Encoder) Bytes() []byte { return e.buf }

// SetBytes makes b the encoded sequence: Bytes() as a codec with a layout
// of its own (mobiflow's telemetry block) appended to it.
func (e *Encoder) SetBytes(b []byte) { e.buf = b }

// Reset truncates the encoder for reuse, retaining the buffer.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

func (e *Encoder) putHeader(tag uint32, length int) {
	e.buf = binary.AppendUvarint(e.buf, uint64(tag))
	e.buf = binary.AppendUvarint(e.buf, uint64(length))
}

// PutUint appends an unsigned integer field.
func (e *Encoder) PutUint(tag uint32, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	e.putHeader(tag, n)
	e.buf = append(e.buf, tmp[:n]...)
}

// PutInt appends a signed integer field using zigzag encoding.
func (e *Encoder) PutInt(tag uint32, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], v)
	e.putHeader(tag, n)
	e.buf = append(e.buf, tmp[:n]...)
}

// PutFloat appends a float64 field as its IEEE-754 bit pattern.
func (e *Encoder) PutFloat(tag uint32, v float64) {
	e.putHeader(tag, 8)
	e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// PutBool appends a boolean field (one byte, 0 or 1).
func (e *Encoder) PutBool(tag uint32, v bool) {
	e.putHeader(tag, 1)
	if v {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// PutString appends a UTF-8 string field.
func (e *Encoder) PutString(tag uint32, s string) {
	e.putHeader(tag, len(s))
	e.buf = append(e.buf, s...)
}

// PutBytes appends a raw byte-string field.
func (e *Encoder) PutBytes(tag uint32, b []byte) {
	e.putHeader(tag, len(b))
	e.buf = append(e.buf, b...)
}

// PutNested appends a nested TLV sequence produced by fn. It is the
// encoding used for SEQUENCE-typed fields. The nested encoder is reused
// across calls (detached while fn runs, so re-entrant use of e inside fn
// stays correct), making repeated SEQUENCE fields allocation-free after
// the first call.
func (e *Encoder) PutNested(tag uint32, fn func(*Encoder)) {
	inner := e.child
	e.child = nil
	if inner == nil {
		inner = new(Encoder)
	}
	inner.Reset()
	fn(inner)
	e.PutBytes(tag, inner.buf)
	e.child = inner
}

// A Decoder iterates over a TLV byte sequence. Typical use:
//
//	d := asn1lite.NewDecoder(data)
//	for d.Next() {
//		switch d.Tag() {
//		case tagID:
//			id, err = d.Uint()
//		...
//		}
//	}
//	if err := d.Err(); err != nil { ... }
//
// Unknown tags are skipped, giving the same forward-compatibility as ASN.1
// extension markers.
type Decoder struct {
	data  []byte
	off   int
	tag   uint32
	val   []byte
	err   error
	depth int
}

// NewDecoder returns a Decoder reading from data. The decoder does not copy
// data; callers must not mutate it during decoding.
func NewDecoder(data []byte) *Decoder {
	return &Decoder{data: data}
}

// Reset repoints the decoder at data and clears all iteration state, so a
// long-lived (stack- or pool-held) decoder can be reused across messages
// without reallocating. The zero Decoder is also valid; Reset makes it
// read data.
func (d *Decoder) Reset(data []byte) {
	*d = Decoder{data: data}
}

// Next advances to the next field. It returns false at end of input or on
// error; check Err afterwards.
func (d *Decoder) Next() bool {
	if d.err != nil || d.off >= len(d.data) {
		return false
	}
	tag, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 || tag > math.MaxUint32 {
		d.err = fmt.Errorf("reading tag at offset %d: %w", d.off, ErrTruncated)
		return false
	}
	d.off += n
	length, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("reading length of tag %d: %w", tag, ErrTruncated)
		return false
	}
	if length > MaxValueLen {
		d.err = fmt.Errorf("tag %d length %d: %w", tag, length, ErrOversize)
		return false
	}
	d.off += n
	if uint64(len(d.data)-d.off) < length {
		d.err = fmt.Errorf("tag %d value needs %d bytes, have %d: %w",
			tag, length, len(d.data)-d.off, ErrTruncated)
		return false
	}
	d.tag = uint32(tag)
	d.val = d.data[d.off : d.off+int(length)]
	d.off += int(length)
	return true
}

// Err returns the first error encountered while decoding.
func (d *Decoder) Err() error { return d.err }

// Tag returns the tag of the current field.
func (d *Decoder) Tag() uint32 { return d.tag }

// RawValue returns the undecoded bytes of the current field's value. The
// slice aliases the decoder's input.
func (d *Decoder) RawValue() []byte { return d.val }

func (d *Decoder) fail(err error) error {
	if d.err == nil {
		d.err = err
	}
	return err
}

// Uint decodes the current field as an unsigned integer.
func (d *Decoder) Uint() (uint64, error) {
	v, n := binary.Uvarint(d.val)
	if n <= 0 || n != len(d.val) {
		return 0, d.fail(fmt.Errorf("tag %d as uint: %w", d.tag, ErrBadValue))
	}
	return v, nil
}

// Int decodes the current field as a signed (zigzag) integer.
func (d *Decoder) Int() (int64, error) {
	v, n := binary.Varint(d.val)
	if n <= 0 || n != len(d.val) {
		return 0, d.fail(fmt.Errorf("tag %d as int: %w", d.tag, ErrBadValue))
	}
	return v, nil
}

// Float decodes the current field as a float64.
func (d *Decoder) Float() (float64, error) {
	if len(d.val) != 8 {
		return 0, d.fail(fmt.Errorf("tag %d as float: %w", d.tag, ErrBadValue))
	}
	return math.Float64frombits(binary.BigEndian.Uint64(d.val)), nil
}

// Bool decodes the current field as a boolean.
func (d *Decoder) Bool() (bool, error) {
	if len(d.val) != 1 || d.val[0] > 1 {
		return false, d.fail(fmt.Errorf("tag %d as bool: %w", d.tag, ErrBadValue))
	}
	return d.val[0] == 1, nil
}

// String decodes the current field as a string (copies the bytes).
func (d *Decoder) String() (string, error) {
	return string(d.val), nil
}

// Bytes decodes the current field as a byte string (copies the bytes).
func (d *Decoder) Bytes() ([]byte, error) {
	out := make([]byte, len(d.val))
	copy(out, d.val)
	return out, nil
}

// Nested returns a sub-decoder over the current field's value, for
// SEQUENCE-typed fields.
func (d *Decoder) Nested() (*Decoder, error) {
	if d.depth+1 > MaxDepth {
		return nil, d.fail(fmt.Errorf("tag %d: %w", d.tag, ErrTooDeep))
	}
	return &Decoder{data: d.val, depth: d.depth + 1}, nil
}
