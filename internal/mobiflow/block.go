package mobiflow

import (
	"encoding/binary"
	"fmt"
	"strings"
	"time"

	"github.com/6g-xsec/xsec/internal/asn1lite"
	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/nas"
	"github.com/6g-xsec/xsec/internal/rrc"
)

// A trace travels as the E2SM-MOBIFLOW indication message, and rests as
// MobiWatch's SDL value for it, in one form — a block:
//
//	block  = format(1 byte) count(uvarint) record × count
//	record = flags(1) code(1) [name] Seq Δ(uvarint) [Timestamp Δ(varint, ns)]
//	         [enums] [UEID(uvarint)] [RNTI(2)] [TMSI(4)] [SUPI(appendSUPI)]
//
// A record is coded against the one before it (the first against the zero
// record): Seq (wrapping) and Timestamp as deltas, the identifiers and the
// seven one-byte enums only when the flags say they changed, so a per-UE
// batch names its UE once. The code byte's low seven bits name the message
// (codeLiteral: a uvarint length and the name follow), its top bit marks a
// zero Timestamp, which has no delta.

const (
	// blockFormat is the first byte of every block; any other is refused.
	blockFormat = 1
	// minRecordBytes is the least a record takes (flags, code, Seq Δ): a
	// count above the bytes after it ÷ this is refused before any sizing.
	minRecordBytes = 3
	// RRC message type t has code t, NAS type t code nasCodeBase + t. A
	// code never changes meaning: a new message is appended to its enum
	// and takes its layer's next code (TestMessageCodesAreStable).
	nasCodeBase  = 64
	codeLiteral  = 0
	codeZeroTime = 0x80
	// Enums take two packed bytes when each fits its bit field, else
	// rawEnums and the seven bytes (a packed EstCause is below 15).
	rawEnums = 0xFF
)

// Record flags: the three booleans, then the fields written on change.
const (
	flagSecurityOn = 1 << iota
	flagOutOfOrder
	flagRetransmission
	flagUEID
	flagRNTI
	flagTMSI
	flagSUPI
	flagEnums
)

// codeNames is the message name of each code ("" for none) and nameCodes
// its inverse. Every name an Extractor emits has a code, so decoding one is
// an index, and the name is shared by every record that carries it.
var codeNames, nameCodes = func() (names [codeZeroTime]string, codes map[string]byte) {
	codes = make(map[string]byte)
	add := func(code int, name string) { names[code], codes[name] = name, byte(code) }
	for t := rrc.MsgType(1); t.Valid() && t < nasCodeBase; t++ {
		add(int(t), t.String())
	}
	for t := nas.MsgType(1); t.Valid() && nasCodeBase+int(t) < len(names); t++ {
		add(nasCodeBase+int(t), t.String())
	}
	return names, codes
}()

// enums is a record's seven one-byte enums, comparable as one value.
type enums [7]byte

func enumsOf(r *Record) enums {
	return enums{byte(r.Layer), byte(r.Dir), byte(r.CipherAlg), byte(r.IntegAlg),
		byte(r.EstCause), byte(r.RRCState), byte(r.NASState)}
}

func (e enums) setOn(r *Record) {
	r.Layer, r.Dir, r.CipherAlg, r.IntegAlg = Layer(e[0]), cell.Direction(e[1]), cell.CipherAlg(e[2]), cell.IntegAlg(e[3])
	r.EstCause, r.RRCState, r.NASState = cell.EstablishmentCause(e[4]), rrc.State(e[5]), nas.State(e[6])
}

func (e enums) appendTo(b []byte) []byte {
	if e[0] < 2 && e[1] < 2 && e[2] < 4 && e[3] < 4 && e[4] < 15 && e[5] < 8 && e[6] < 8 {
		return append(b, e[4]<<4|e[2]<<2|e[3], e[0]<<7|e[1]<<6|e[5]<<3|e[6])
	}
	return append(append(b, rawEnums), e[:]...)
}

// link is what a record is coded against: the fields of the record before
// it that a delta or a "changed" flag refers to.
type link struct {
	seq, ue uint64
	ns      int64
	rnti    cell.RNTI
	tmsi    cell.TMSI
	supi    cell.SUPI
	enums   enums
}

func bit(on bool, b byte) byte {
	if on {
		return b
	}
	return 0
}

// appendRecord appends r coded against p and makes r p's next reference.
func (p *link) appendRecord(b []byte, r *Record) []byte {
	en := enumsOf(r)
	flags := bit(r.SecurityOn, flagSecurityOn) | bit(r.OutOfOrder, flagOutOfOrder) |
		bit(r.Retransmission, flagRetransmission) | bit(r.UEID != p.ue, flagUEID) |
		bit(r.RNTI != p.rnti, flagRNTI) | bit(r.TMSI != p.tmsi, flagTMSI) |
		bit(r.SUPI != p.supi, flagSUPI) | bit(en != p.enums, flagEnums)
	code, known := nameCodes[r.Msg]
	zero := r.Timestamp.IsZero()
	b = append(b, flags, code|bit(zero, codeZeroTime))
	if !known {
		b = append(binary.AppendUvarint(b, uint64(len(r.Msg))), r.Msg...)
	}
	b, p.seq = binary.AppendUvarint(b, r.Seq-p.seq), r.Seq
	if !zero {
		ns := r.Timestamp.UnixNano()
		b, p.ns = binary.AppendVarint(b, ns-p.ns), ns
	}
	if flags&flagEnums != 0 {
		b, p.enums = en.appendTo(b), en
	}
	if flags&flagUEID != 0 {
		b, p.ue = binary.AppendUvarint(b, r.UEID), r.UEID
	}
	if flags&flagRNTI != 0 {
		b, p.rnti = binary.BigEndian.AppendUint16(b, uint16(r.RNTI)), r.RNTI
	}
	if flags&flagTMSI != 0 {
		b, p.tmsi = binary.BigEndian.AppendUint32(b, uint32(r.TMSI)), r.TMSI
	}
	if flags&flagSUPI != 0 {
		b, p.supi = appendSUPI(b, r.SUPI), r.SUPI
	}
	return b
}

// imsiPrefix starts every SUPI the simulator reveals (an IMSI). A SUPI is
// written without it when it has it, saying so in its length's low bit.
const imsiPrefix = "imsi-"

func appendSUPI(b []byte, s cell.SUPI) []byte {
	rest, imsi := strings.CutPrefix(string(s), imsiPrefix)
	return append(binary.AppendUvarint(b, uint64(len(rest))<<1|uint64(bit(imsi, 1))), rest...)
}

// appendBlock appends tr's block to b.
func appendBlock(b []byte, tr Trace) []byte {
	b = binary.AppendUvarint(append(b, blockFormat), uint64(len(tr)))
	var p link
	for i := range tr {
		b = p.appendRecord(b, &tr[i])
	}
	return b
}

// blockReader reads a block's records in order. A read past the input or
// of a value no encoder writes breaks it: the record then fails whole.
type blockReader struct {
	data   []byte // what is left of the input
	left   int    // records not yet read
	broken bool
	prev   link
}

func bad(format string, args ...any) error {
	return fmt.Errorf("mobiflow: malformed telemetry block: "+format, args...)
}

// zeros is what a broken fixed-size read returns.
var zeros [8]byte

func (rd *blockReader) fail() { rd.broken, rd.data = true, nil }

func (rd *blockReader) take(n uint64) []byte {
	if n > uint64(len(rd.data)) {
		rd.fail()
		return zeros[:min(n, uint64(len(zeros)))]
	}
	b := rd.data[:n]
	rd.data = rd.data[n:]
	return b
}

func (rd *blockReader) uvarint() uint64 {
	v, n := binary.Uvarint(rd.data)
	if n <= 0 {
		rd.fail()
		return 0
	}
	rd.data = rd.data[n:]
	return v
}

// openBlock checks data's format byte and record count. The count is
// refused when the bytes after it cannot hold that many records.
func openBlock(data []byte) (blockReader, error) {
	rd := blockReader{data: data}
	format, n := rd.take(1)[0], rd.uvarint()
	if rd.broken || format != blockFormat || n > uint64(len(rd.data)/minRecordBytes) {
		return blockReader{}, bad("header: format %d, %d records in %d bytes", format, n, len(rd.data))
	}
	rd.left = int(n)
	return rd, nil
}

func (rd *blockReader) enums() (e enums) {
	if len(rd.data) > 0 && rd.data[0] == rawEnums {
		copy(e[:], rd.take(8)[1:])
		return e
	}
	d := rd.take(2)
	return enums{d[1] >> 7, d[1] >> 6 & 1, d[0] >> 2 & 3, d[0] & 3, d[0] >> 4, d[1] >> 3 & 7, d[1] & 7}
}

// next decodes the block's next record into r. Known message names are
// shared, not copied: the only allocations are a literal name and a SUPI
// where it changes.
func (rd *blockReader) next(r *Record) error {
	h := rd.take(2)
	flags, code := h[0], h[1]
	p := &rd.prev
	*r = Record{
		SecurityOn:     flags&flagSecurityOn != 0,
		OutOfOrder:     flags&flagOutOfOrder != 0,
		Retransmission: flags&flagRetransmission != 0,
	}
	if c := code &^ codeZeroTime; c == codeLiteral {
		r.Msg = string(rd.take(rd.uvarint()))
	} else if r.Msg = codeNames[c]; r.Msg == "" {
		rd.fail()
	}
	p.seq += rd.uvarint()
	r.Seq = p.seq
	if code&codeZeroTime == 0 {
		u := rd.uvarint()
		p.ns += int64(u>>1) ^ -int64(u&1) // zigzag, as binary.Varint
		r.Timestamp = time.Unix(0, p.ns).UTC()
	}
	if flags&flagEnums != 0 {
		p.enums = rd.enums()
	}
	if flags&flagUEID != 0 {
		p.ue = rd.uvarint()
	}
	if flags&flagRNTI != 0 {
		p.rnti = cell.RNTI(binary.BigEndian.Uint16(rd.take(2)))
	}
	if flags&flagTMSI != 0 {
		p.tmsi = cell.TMSI(binary.BigEndian.Uint32(rd.take(4)))
	}
	if flags&flagSUPI != 0 {
		n := rd.uvarint()
		if supi := rd.take(n >> 1); n&1 == 0 {
			p.supi = cell.SUPI(supi)
		} else {
			p.supi = cell.SUPI(imsiPrefix + string(supi))
		}
	}
	if rd.broken {
		return bad("record truncated or malformed, %d of the block's records unread", rd.left)
	}
	p.enums.setOn(r)
	r.UEID, r.RNTI, r.TMSI, r.SUPI = p.ue, p.rnti, p.tmsi, p.supi
	rd.left--
	return nil
}

// Encode serializes a record as a one-record block.
func Encode(r *Record) []byte { return appendBlock(nil, Trace{*r}) }

// Decode returns a block's first record, without reading the rest: a
// reader sampling the telemetry namespace a record per value reads one.
func Decode(data []byte) (Record, error) {
	var r Record
	rd, err := openBlock(data)
	if err == nil && rd.left == 0 {
		err = bad("no record")
	}
	if err == nil {
		err = rd.next(&r)
	}
	if err != nil {
		return Record{}, err
	}
	return r, nil
}

// EncodeTrace serializes a whole trace as one block.
func EncodeTrace(tr Trace) []byte { return appendBlock(make([]byte, 0, 2+16*len(tr)), tr) }

// AppendTrace appends tr's block to e. Hot paths hold a long-lived encoder
// and call this per batch: steady-state encoding allocates nothing.
func AppendTrace(e *asn1lite.Encoder, tr Trace) { e.SetBytes(appendBlock(e.Bytes(), tr)) }

// DecodeTraceInto parses a block, appending its records to buf (the
// previous batch's, truncated, so that steady-state decoding reuses one
// backing array). The records decoded before an error, bytes past the
// last record included, are returned alongside it.
func DecodeTraceInto(buf Trace, data []byte) (Trace, error) {
	rd, err := openBlock(data)
	if err != nil {
		return buf, err
	}
	if cap(buf)-len(buf) < rd.left {
		buf = append(make(Trace, 0, len(buf)+rd.left), buf...)
	}
	for rd.left > 0 {
		buf = append(buf, Record{})
		if err := rd.next(&buf[len(buf)-1]); err != nil {
			return buf[:len(buf)-1], err
		}
	}
	if len(rd.data) != 0 {
		return buf, bad("%d bytes past the last record", len(rd.data))
	}
	return buf, nil
}
