// Package prov is the forensic provenance ledger of the 6G-XSec stack:
// an append-only, concurrency-safe record of the causal evidence chain
// behind every pipeline decision — MobiFlow batch digest → E2 indication
// → feature-window scores vs. thresholds → alert → LLM verdict →
// mitigation lifecycle — so an operator can ask "why was this UE flagged
// and why was this control issued?" and get an auditable answer instead
// of a reconstruction (MobiLLM, arXiv:2509.21634; the attack surface of
// unexplained xApp verdicts, arXiv:2406.12299).
//
// Every stage of one telemetry batch's journey shares a stable chain ID
// (the emitting node plus the E2 indication sequence number, the same
// identity obs.IndicationKey mints for spans). Pipeline packages record
// fixed-size Event structs into the active Ledger; recording appends to
// a preallocated batch without waiting for the writer and performs no
// allocation, so it is safe on the streaming-inference hot path. Benign windows (the common case) are
// evidence by run, not by window: MobiWatch folds each run it scores into
// one event before recording it, and the single writer goroutine, which
// serializes events, merges whatever still arrives window by window with
// the same rule — so the chain retained is the same wherever the fold
// happened. The writer applies a batch at a time, stores each event once,
// as TLV in the SDL, publishing each chain the batch changed once, and
// enforces bounded retention, deleting on eviction exactly the keys it
// wrote.
package prov

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"github.com/6g-xsec/xsec/internal/asn1lite"
	"github.com/6g-xsec/xsec/internal/mobiflow"
)

// ChainID is the stable identity of one evidence chain: the E2 node that
// emitted the telemetry batch and the RIC indication sequence number.
// Its String form equals obs.IndicationKey(node, sn), so provenance
// chains, trace spans, and histogram exemplars all join on the same key.
type ChainID struct {
	Node string `json:"node"`
	SN   uint64 `json:"sn"`
}

// String renders "node/sn".
func (c ChainID) String() string {
	return c.Node + "/" + strconv.FormatUint(c.SN, 10)
}

// ParseChainID parses the "node/sn" spelling. The node may itself
// contain slashes; the sequence number is everything after the last one.
func ParseChainID(s string) (ChainID, error) {
	i := strings.LastIndexByte(s, '/')
	if i < 0 {
		return ChainID{}, fmt.Errorf("prov: chain ID %q: want node/sn", s)
	}
	sn, err := strconv.ParseUint(s[i+1:], 10, 64)
	if err != nil {
		return ChainID{}, fmt.Errorf("prov: chain ID %q: %w", s, err)
	}
	if s[:i] == "" {
		return ChainID{}, fmt.Errorf("prov: chain ID %q: empty node", s)
	}
	return ChainID{Node: s[:i], SN: sn}, nil
}

// Kind discriminates the stages of an evidence chain.
type Kind uint8

// Chain stages, in causal order.
const (
	// KindEmit: the gNB agent drained telemetry and built the batch.
	KindEmit Kind = iota
	// KindTransport: the batch left the node over the E2 interface.
	KindTransport
	// KindIndication: the RIC E2 Termination received and routed the
	// indication toward xApp subscriptions.
	KindIndication
	// KindWindow: MobiWatch scored a feature window against a model
	// threshold (runs of benign observations fold into one event, Count
	// windows long; flagged ones append).
	KindWindow
	// KindAlert: a flagged window was offered to the analyzer stream.
	KindAlert
	// KindVerdict: the LLM analyzer returned (or failed to return) a
	// usable verdict for the case.
	KindVerdict
	// KindMitigation: one lifecycle transition of a mitigation action.
	KindMitigation

	kindCount
)

var kindNames = [...]string{
	"emit", "transport", "indication", "window", "alert", "verdict", "mitigation",
}

// String returns the ledger spelling of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MarshalJSON renders the kind as its name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(nil, k.String()), nil
}

// UnmarshalJSON parses a kind name.
func (k *Kind) UnmarshalJSON(data []byte) error {
	s, err := strconv.Unquote(string(data))
	if err != nil {
		return fmt.Errorf("prov: kind: %w", err)
	}
	for i, n := range kindNames {
		if n == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("prov: unknown kind %q", s)
}

// Event is one link of an evidence chain. The struct is fixed-size and
// recording one is allocation-free; only the fields a stage needs are
// set, the rest stay zero and are omitted from the stored TLV and the
// JSON form.
type Event struct {
	Chain ChainID   `json:"chain"`
	Kind  Kind      `json:"kind"`
	At    time.Time `json:"at"`

	// SeqFirst..SeqLast is the MobiFlow sequence range the event covers
	// (the batch for emit, the window for window/alert events).
	SeqFirst uint64 `json:"seq_first,omitempty"`
	SeqLast  uint64 `json:"seq_last,omitempty"`
	// Records is the batch size for emit events.
	Records uint32 `json:"records,omitempty"`
	// Count is how many observations a coalesced event summarizes
	// (runs of benign windows merge into one event; Score keeps the
	// maximum seen).
	Count uint32 `json:"count,omitempty"`

	// Digest fingerprints the evidence: the record batch (emit), the
	// encoded feature window (window/alert), or the LLM prompt (verdict).
	Digest Digest `json:"digest,omitempty"`

	// Model, Score, Threshold, and Flagged describe a detector decision.
	Model     string  `json:"model,omitempty"`
	Score     float64 `json:"score,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	Flagged   bool    `json:"flagged,omitempty"`

	// Label carries the stage outcome: routing outcome for indications,
	// alert disposition, the LLM verdict, or the mitigation lifecycle
	// state.
	Label string `json:"label,omitempty"`
	// Action is the mitigation action class or attack classification.
	Action string `json:"action,omitempty"`
	// Target is what a mitigation acts on (e.g. "ue/5", "tmsi/1234").
	Target string `json:"target,omitempty"`
	// UEID is the UE context a control targets.
	UEID uint64 `json:"ue_id,omitempty"`
	// ActionID is the mitigation journal entry ID, joining the chain to
	// the mitigate/journal SDL namespace.
	ActionID uint64 `json:"action_id,omitempty"`
	// Note carries free-form context (suppression reasons, errors).
	Note string `json:"note,omitempty"`
}

// TLV field tags of an event's stored form. There is no chain tag: the
// chain is the SDL key's. Tags are the format: a new field takes a new
// tag, and none is ever renumbered.
const (
	tagKind = iota + 1
	tagAt
	tagSeqFirst
	tagSeqLast
	tagRecords
	tagCount
	tagDigest
	tagModel
	tagScore
	tagThreshold
	tagFlagged
	tagLabel
	tagAction
	tagTarget
	tagUEID
	tagActionID
	tagNote
)

// MarshalTLV implements asn1lite.Marshaler: the form the ledger stores,
// one copy per event. Zero fields are left out, At is an instant in
// UnixNano, floats are their bits and strings their bytes, so NaN, ±Inf,
// -0 and invalid UTF-8 all read back exactly.
func (ev *Event) MarshalTLV(e *asn1lite.Encoder) {
	putUint := func(tag uint32, v uint64) {
		if v != 0 {
			e.PutUint(tag, v)
		}
	}
	putString := func(tag uint32, s string) {
		if s != "" {
			e.PutString(tag, s)
		}
	}
	putFloat := func(tag uint32, v float64) {
		if math.Float64bits(v) != 0 {
			e.PutFloat(tag, v)
		}
	}
	putUint(tagKind, uint64(ev.Kind))
	if !ev.At.IsZero() {
		e.PutInt(tagAt, ev.At.UnixNano())
	}
	putUint(tagSeqFirst, ev.SeqFirst)
	putUint(tagSeqLast, ev.SeqLast)
	putUint(tagRecords, uint64(ev.Records))
	putUint(tagCount, uint64(ev.Count))
	putUint(tagDigest, uint64(ev.Digest))
	putString(tagModel, ev.Model)
	putFloat(tagScore, ev.Score)
	putFloat(tagThreshold, ev.Threshold)
	if ev.Flagged {
		e.PutBool(tagFlagged, true)
	}
	putString(tagLabel, ev.Label)
	putString(tagAction, ev.Action)
	putString(tagTarget, ev.Target)
	putUint(tagUEID, ev.UEID)
	putUint(tagActionID, ev.ActionID)
	putString(tagNote, ev.Note)
}

// UnmarshalTLV implements asn1lite.Unmarshaler. It leaves Chain alone
// and reads At back in UTC; a value too wide for its field is an error,
// not a truncation.
func (ev *Event) UnmarshalTLV(d *asn1lite.Decoder) error {
	for d.Next() {
		var err error
		switch d.Tag() {
		case tagKind:
			ev.Kind, err = uintOf[Kind](d)
		case tagAt:
			var ns int64
			ns, err = d.Int()
			ev.At = time.Unix(0, ns).UTC()
		case tagSeqFirst:
			ev.SeqFirst, err = d.Uint()
		case tagSeqLast:
			ev.SeqLast, err = d.Uint()
		case tagRecords:
			ev.Records, err = uintOf[uint32](d)
		case tagCount:
			ev.Count, err = uintOf[uint32](d)
		case tagDigest:
			ev.Digest, err = uintOf[Digest](d)
		case tagModel:
			ev.Model = string(d.RawValue())
		case tagScore:
			ev.Score, err = d.Float()
		case tagThreshold:
			ev.Threshold, err = d.Float()
		case tagFlagged:
			ev.Flagged, err = d.Bool()
		case tagLabel:
			ev.Label = string(d.RawValue())
		case tagAction:
			ev.Action = string(d.RawValue())
		case tagTarget:
			ev.Target = string(d.RawValue())
		case tagUEID:
			ev.UEID, err = d.Uint()
		case tagActionID:
			ev.ActionID, err = d.Uint()
		case tagNote:
			ev.Note = string(d.RawValue())
		}
		if err != nil {
			return fmt.Errorf("prov: event tag %d: %w", d.Tag(), err)
		}
	}
	return d.Err()
}

// uintOf decodes the current field as an unsigned integer that fits T.
func uintOf[T ~uint8 | ~uint32 | ~uint64](d *asn1lite.Decoder) (T, error) {
	v, err := d.Uint()
	if err == nil && uint64(T(v)) != v {
		err = fmt.Errorf("%d overflows %T: %w", v, T(0), asn1lite.ErrBadValue)
	}
	return T(v), err
}

// appendSegment decodes a stored segment of chain id — a run of
// uvarint(len) ‖ event TLV — onto evs, refusing a length past its end.
func appendSegment(evs []Event, id ChainID, seg []byte) ([]Event, error) {
	var d asn1lite.Decoder
	for len(seg) > 0 {
		n, w := binary.Uvarint(seg)
		if w <= 0 || n > uint64(len(seg)-w) {
			return evs, fmt.Errorf("prov: segment length prefix: %w", asn1lite.ErrTruncated)
		}
		ev := Event{Chain: id}
		d.Reset(seg[w : w+int(n)])
		if err := ev.UnmarshalTLV(&d); err != nil {
			return evs, err
		}
		evs, seg = append(evs, ev), seg[w+int(n):]
	}
	return evs, nil
}

// Digest is a 64-bit FNV-1a fingerprint, rendered as hex in /prov JSON
// so the value survives encoders that truncate large integers to float64.
type Digest uint64

// fnv-1a parameters.
const (
	fnvOffset64 Digest = 14695981039346656037
	fnvPrime64  Digest = 1099511628211
)

// NewDigest returns the FNV-1a offset basis to accumulate into.
func NewDigest() Digest { return fnvOffset64 }

// Byte mixes one byte. All mixers are allocation-free by construction:
// they operate on the value receiver and return the updated digest.
func (d Digest) Byte(b byte) Digest { return (d ^ Digest(b)) * fnvPrime64 }

// fnvZeroWords[n] is fnvPrime64^(8n): mixing a zero byte is one
// multiplication by the prime, so mixing n zero 64-bit words — a run of
// a feature window, which is mostly one-hot indicators — is one
// multiplication by this.
var fnvZeroWords = func() (t [65]Digest) {
	t[0] = 1
	for n := 1; n < len(t); n++ {
		p := t[n-1]
		for i := 0; i < 8; i++ {
			p *= fnvPrime64
		}
		t[n] = p
	}
	return t
}()

// zeroWords mixes n zero 64-bit words, to the value 8n Byte(0) calls
// give, in one multiplication per 64 of them.
func (d Digest) zeroWords(n int) Digest {
	for ; n >= len(fnvZeroWords); n -= len(fnvZeroWords) - 1 {
		d *= fnvZeroWords[len(fnvZeroWords)-1]
	}
	return d * fnvZeroWords[n]
}

// U64 mixes an unsigned integer, little-endian. Zero takes one step
// instead of eight, to the same value.
func (d Digest) U64(v uint64) Digest {
	if v == 0 {
		return d * fnvZeroWords[1]
	}
	for i := 0; i < 8; i++ {
		d = d.Byte(byte(v >> (8 * i)))
	}
	return d
}

// F64 mixes a float through its IEEE-754 bits.
func (d Digest) F64(v float64) Digest { return d.U64(math.Float64bits(v)) }

// Str mixes a string plus a terminator so "ab","c" != "a","bc".
func (d Digest) Str(s string) Digest {
	for i := 0; i < len(s); i++ {
		d = d.Byte(s[i])
	}
	return d.Byte(0)
}

// SparseFloats32 mixes a float32 feature vector whose every element
// outside nz, an ascending index list, is +0, through each element's
// float64 bit pattern (feature vectors are exactly representable:
// indicators and small fixed-point ratios). A run of +0 elements costs
// one multiplication, whatever its length.
func (d Digest) SparseFloats32(vs []float32, nz []int32) Digest {
	next := 0
	for _, i := range nz {
		d = d.zeroWords(int(i) - next).F64(float64(vs[i]))
		next = int(i) + 1
	}
	return d.zeroWords(len(vs) - next)
}

// String renders the digest as 16 hex digits.
func (d Digest) String() string {
	var buf [16]byte
	return string(d.appendHex(buf[:0]))
}

// appendHex appends the digest's 16 hex digits to b.
func (d Digest) appendHex(b []byte) []byte {
	const hex = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		b = append(b, hex[(d>>uint(shift))&0xf])
	}
	return b
}

// MarshalJSON renders the digest as a quoted hex string.
func (d Digest) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(nil, d.String()), nil
}

// UnmarshalJSON parses the quoted hex form.
func (d *Digest) UnmarshalJSON(data []byte) error {
	s, err := strconv.Unquote(string(data))
	if err != nil {
		return fmt.Errorf("prov: digest: %w", err)
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return fmt.Errorf("prov: digest %q: %w", s, err)
	}
	*d = Digest(v)
	return nil
}

// DigestText fingerprints a rendered prompt or response.
func DigestText(s string) Digest { return NewDigest().Str(s) }

// DigestRecords fingerprints a telemetry batch by sequence number,
// message name, and UE context — enough to detect tampering or loss
// between the gNB emission and what the detector scored.
func DigestRecords(tr mobiflow.Trace) Digest {
	d := NewDigest()
	for i := range tr {
		d = d.U64(tr[i].Seq).Str(tr[i].Msg).U64(tr[i].UEID)
	}
	return d
}
