// Package mobiflow implements the MOBIFLOW security-telemetry stream
// (§3.1 of the 6G-XSec paper, following Wen et al., "A fine-grained
// telemetry stream for security services in 5G open radio access
// networks").
//
// A telemetry entry x_i is collected at each control-message transmission:
//
//	x_i = [t_i, m_i, p_1 ... p_k]
//
// where m_i is the RRC or NAS message and the p_k are UE-specific
// parameters (Table 1): RNTI, S-TMSI, SUPI, ciphering and integrity
// algorithms, and the RRC establishment cause, plus the RRC/NAS protocol
// states the CU tracks. A time series τ = {x_1 ... x_M} from the RAN is a
// Trace.
//
// Records are produced by the gNB's RIC agent (internal/gnb), transported
// over E2 inside the E2SM-MOBIFLOW service model (internal/e2sm), stored
// in the SDL (internal/sdl), and consumed by the MobiWatch and LLM
// Analyzer xApps.
package mobiflow

import (
	"fmt"
	"strconv"
	"time"

	"github.com/6g-xsec/xsec/internal/asn1lite"
	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/nas"
	"github.com/6g-xsec/xsec/internal/rrc"
)

// Layer identifies which protocol produced the message field of a record.
type Layer uint8

// Protocol layers.
const (
	LayerRRC Layer = iota
	LayerNAS
)

// String returns "RRC" or "NAS".
func (l Layer) String() string {
	if l == LayerRRC {
		return "RRC"
	}
	return "NAS"
}

// Record is one MOBIFLOW telemetry entry. Fields correspond to Table 1 of
// the paper; zero values mean "not (yet) known" (e.g. TMSI before the AMF
// assigns one, SUPI unless it was revealed in plaintext).
type Record struct {
	// Seq is the gNB-assigned monotonic sequence number of the entry.
	Seq uint64
	// Timestamp is the collection time t_i.
	Timestamp time.Time
	// UEID is the CU-local UE context identifier the entry belongs to.
	UEID uint64

	// Msg is the RRC or NAS message name m_i.
	Msg string
	// Layer tells which protocol Msg belongs to.
	Layer Layer
	// Dir is the transmission direction.
	Dir cell.Direction

	// RNTI is the UE's C-RNTI at collection time.
	RNTI cell.RNTI
	// TMSI is the 5G-S-TMSI if one is associated with the UE context.
	TMSI cell.TMSI
	// SUPI is the permanent identifier if (and only if) it has been
	// observed in plaintext on the air interface.
	SUPI cell.SUPI

	// CipherAlg and IntegAlg are the security algorithms currently
	// selected for the UE (NEA0/NIA0 until security activation).
	CipherAlg cell.CipherAlg
	IntegAlg  cell.IntegAlg
	// SecurityOn reports whether NAS security has been activated, which
	// disambiguates "NEA0 because no security yet" from "NEA0 selected".
	SecurityOn bool

	// EstCause is the RRC establishment cause from the UE.
	EstCause cell.EstablishmentCause

	// RRCState and NASState are the CU-tracked protocol states after
	// this message.
	RRCState rrc.State
	NASState nas.State

	// OutOfOrder is set when the message violated the protocol state
	// machine (a TransitionError), the univariate anomaly signal of
	// Figure 2a.
	OutOfOrder bool
	// Retransmission marks duplicate messages caused by radio noise —
	// the main source of benign false positives in the paper (§4.1).
	Retransmission bool
}

// String renders a compact single-line form used in logs and LLM prompts.
func (r Record) String() string {
	var buf [192]byte // a line is ≈ 140 bytes, 185 with every identifier set
	return string(r.AppendTo(buf[:0]))
}

// AppendTo appends the String form to b. Every escalated case and every
// prompt renders its window line by line, so this formats by append
// rather than through fmt.
func (r *Record) AppendTo(b []byte) []byte {
	kv := func(key, value string) { b = append(append(b, key...), value...) }
	b = strconv.AppendUint(append(b, '#'), r.Seq, 10)
	kv(" ", r.Dir.String())
	kv(" ", r.Layer.String())
	kv(" ", r.Msg)
	b = appendHex(append(b, " rnti="...), uint64(r.RNTI), 4)
	if r.TMSI != cell.InvalidTMSI {
		b = appendHex(append(b, " tmsi="...), uint64(r.TMSI), 8)
	}
	if r.SUPI != "" {
		kv(" supi=", string(r.SUPI))
		b = append(b, "(PLAINTEXT)"...)
	}
	kv(" cipher=", r.CipherAlg.String())
	kv(" integ=", r.IntegAlg.String())
	if r.SecurityOn {
		b = append(b, " sec=on"...)
	} else {
		b = append(b, " sec=off"...)
	}
	kv(" cause=", r.EstCause.String())
	kv(" rrc=", r.RRCState.String())
	kv(" nas=", r.NASState.String())
	if r.OutOfOrder {
		b = append(b, " OUT-OF-ORDER"...)
	}
	if r.Retransmission {
		b = append(b, " RETX"...)
	}
	return b
}

// appendHex renders v as cell.RNTI and cell.TMSI print themselves: 0x and
// width upper-case digits.
func appendHex(b []byte, v uint64, width int) []byte {
	b = append(b, "0x"...)
	for shift := 4 * (width - 1); shift >= 0; shift -= 4 {
		b = append(b, "0123456789ABCDEF"[v>>shift&0xF])
	}
	return b
}

// TLV field tags for the E2 encoding of a record.
const (
	tagSeq        = 1
	tagTimestamp  = 2
	tagUEID       = 3
	tagMsg        = 4
	tagLayer      = 5
	tagDir        = 6
	tagRNTI       = 7
	tagTMSI       = 8
	tagSUPI       = 9
	tagCipherAlg  = 10
	tagIntegAlg   = 11
	tagSecurityOn = 12
	tagEstCause   = 13
	tagRRCState   = 14
	tagNASState   = 15
	tagOutOfOrder = 16
	tagRetrans    = 17
)

// MarshalTLV implements asn1lite.Marshaler. A zero Timestamp is left out,
// as the decoder leaves it: its UnixNano is not a time the decoder could
// give back.
func (r *Record) MarshalTLV(e *asn1lite.Encoder) {
	e.PutUint(tagSeq, r.Seq)
	if !r.Timestamp.IsZero() {
		e.PutInt(tagTimestamp, r.Timestamp.UnixNano())
	}
	e.PutUint(tagUEID, r.UEID)
	e.PutString(tagMsg, r.Msg)
	e.PutUint(tagLayer, uint64(r.Layer))
	e.PutUint(tagDir, uint64(r.Dir))
	e.PutUint(tagRNTI, uint64(r.RNTI))
	e.PutUint(tagTMSI, uint64(r.TMSI))
	e.PutString(tagSUPI, string(r.SUPI))
	e.PutUint(tagCipherAlg, uint64(r.CipherAlg))
	e.PutUint(tagIntegAlg, uint64(r.IntegAlg))
	e.PutBool(tagSecurityOn, r.SecurityOn)
	e.PutUint(tagEstCause, uint64(r.EstCause))
	e.PutUint(tagRRCState, uint64(r.RRCState))
	e.PutUint(tagNASState, uint64(r.NASState))
	e.PutBool(tagOutOfOrder, r.OutOfOrder)
	e.PutBool(tagRetrans, r.Retransmission)
}

// msgNames is the closed set of message names the rrc and nas packages
// define, keyed by itself. It is filled here and only read afterwards.
var msgNames = func() map[string]string {
	m := make(map[string]string)
	for t := rrc.MsgType(1); t.Valid(); t++ {
		m[t.String()] = t.String()
	}
	for t := nas.MsgType(1); t.Valid(); t++ {
		m[t.String()] = t.String()
	}
	return m
}()

// internMsg returns a decoded record's message name without allocating
// when it is one of msgNames, which every name an Extractor emits is: the
// name is then shared by every record, window and alert context that
// carries it. Any other name is UE-originated bytes; it is copied as
// before and never enters the table.
func internMsg(raw []byte) string {
	if s, ok := msgNames[string(raw)]; ok {
		return s
	}
	return string(raw)
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (r *Record) UnmarshalTLV(d *asn1lite.Decoder) error {
	for d.Next() {
		var err error
		switch d.Tag() {
		case tagSeq:
			r.Seq, err = d.Uint()
		case tagTimestamp:
			var ns int64
			ns, err = d.Int()
			if err == nil {
				r.Timestamp = time.Unix(0, ns).UTC()
			}
		case tagUEID:
			r.UEID, err = d.Uint()
		case tagMsg:
			r.Msg = internMsg(d.RawValue())
		case tagLayer:
			var v uint64
			v, err = d.Uint()
			r.Layer = Layer(v)
		case tagDir:
			var v uint64
			v, err = d.Uint()
			r.Dir = cell.Direction(v)
		case tagRNTI:
			var v uint64
			v, err = d.Uint()
			r.RNTI = cell.RNTI(v)
		case tagTMSI:
			var v uint64
			v, err = d.Uint()
			r.TMSI = cell.TMSI(v)
		case tagSUPI:
			var s string
			s, err = d.String()
			r.SUPI = cell.SUPI(s)
		case tagCipherAlg:
			var v uint64
			v, err = d.Uint()
			r.CipherAlg = cell.CipherAlg(v)
		case tagIntegAlg:
			var v uint64
			v, err = d.Uint()
			r.IntegAlg = cell.IntegAlg(v)
		case tagSecurityOn:
			r.SecurityOn, err = d.Bool()
		case tagEstCause:
			var v uint64
			v, err = d.Uint()
			r.EstCause = cell.EstablishmentCause(v)
		case tagRRCState:
			var v uint64
			v, err = d.Uint()
			r.RRCState = rrc.State(v)
		case tagNASState:
			var v uint64
			v, err = d.Uint()
			r.NASState = nas.State(v)
		case tagOutOfOrder:
			r.OutOfOrder, err = d.Bool()
		case tagRetrans:
			r.Retransmission, err = d.Bool()
		}
		if err != nil {
			return fmt.Errorf("mobiflow: record tag %d: %w", d.Tag(), err)
		}
	}
	return d.Err()
}

// Encode serializes a record for E2 transport.
func Encode(r *Record) []byte { return asn1lite.Marshal(r) }

// Decode parses a record from its E2 wire form. Given a batch as
// EncodeTrace writes it — a telemetry value as MobiWatch keeps it in the
// SDL — it returns the batch's first record, so a reader that samples the
// telemetry namespace one record per key still reads one.
func Decode(data []byte) (Record, error) {
	var r Record
	if err := asn1lite.Unmarshal(data, &r); err != nil {
		if tr, terr := DecodeTrace(data); terr == nil && len(tr) > 0 {
			return tr[0], nil
		}
		return Record{}, err
	}
	return r, nil
}

// EncodeTrace serializes a whole trace as repeated nested records.
func EncodeTrace(tr Trace) []byte {
	var e asn1lite.Encoder
	AppendTrace(&e, tr)
	return e.Bytes()
}

// AppendTrace appends tr's EncodeTrace wire form to e. Hot paths hold a
// long-lived encoder and call this per batch: the encoder's buffer and
// its nested-record child are reused, so steady-state encoding of a
// telemetry batch allocates nothing.
func AppendTrace(e *asn1lite.Encoder, tr Trace) {
	for i := range tr {
		e.PutMessage(1, &tr[i])
	}
}

// DecodeTrace parses a trace produced by EncodeTrace into a slice sized
// once, from a count of the record fields actually present in data: a
// pass over the field headers, so the size is bounded by len(data) and
// never read from it. Like DecodeTraceInto it returns the records decoded
// before an error alongside the error.
func DecodeTrace(data []byte) (Trace, error) {
	var d asn1lite.Decoder
	d.Reset(data)
	n := 0
	for d.Next() {
		if d.Tag() == 1 {
			n++
		}
	}
	var buf Trace // stays nil when data holds no record
	if n > 0 {
		buf = make(Trace, 0, n)
	}
	return DecodeTraceInto(buf, data)
}

// DecodeTraceInto parses a trace produced by EncodeTrace, appending its
// records to buf. Streaming consumers pass the previous batch's slice
// (truncated to buf[:0]) so steady-state batch decoding reuses one
// backing array instead of growing a fresh slice per indication. The
// appended records are returned even on error, alongside it.
func DecodeTraceInto(buf Trace, data []byte) (Trace, error) {
	d := asn1lite.NewDecoder(data)
	for d.Next() {
		if d.Tag() != 1 {
			continue
		}
		buf = append(buf, Record{})
		if err := d.Message(&buf[len(buf)-1]); err != nil {
			return buf, err
		}
	}
	return buf, d.Err()
}
