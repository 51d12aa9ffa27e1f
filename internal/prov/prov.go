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
// fixed-size Event structs into the active Ledger; recording is a
// non-blocking channel send and performs no allocation, so it is safe on
// the streaming-inference hot path. Benign windows (the common case) are
// evidence by run, not by window: MobiWatch folds each run it scores into
// one event before recording it, and the single writer goroutine, which
// serializes events, merges whatever still arrives window by window with
// the same rule — so the chain retained is the same wherever the fold
// happened. The writer persists chains to the SDL and enforces bounded
// retention, deleting on eviction exactly the keys it wrote.
package prov

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

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
	// KindMigration: a UE's detection state crossed a RIC-instance
	// boundary. The old owner records Label "out" on the chain of the
	// UE's last indication; the new owner records Label "in" on the
	// chain of the first indication scored after restore, with Note
	// carrying the source chain key — the link that joins the two
	// chains into one auditable history.
	KindMigration
	// KindFleet: an SMO fleet-plane membership transition — the
	// heartbeat failure detector marking an instance suspect, dead
	// (auto-evicted from the ring), or rejoined. Label carries the new
	// state, Target the instance ID, Note the reason.
	KindFleet

	kindCount
)

var kindNames = [...]string{
	"emit", "transport", "indication", "window", "alert", "verdict", "mitigation", "migration", "fleet",
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
// set, the rest stay zero and are omitted from the JSON form.
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

// Digest is a 64-bit FNV-1a fingerprint, rendered as hex in JSON so the
// value survives encoders that truncate large integers to float64.
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

// fnvZeroWord is fnvPrime64^8: mixing a zero byte is one multiplication
// by the prime, so mixing eight of them is one multiplication by this.
var fnvZeroWord = func() Digest {
	p := fnvPrime64
	for i := 0; i < 3; i++ {
		p *= p
	}
	return p
}()

// U64 mixes an unsigned integer, little-endian. Zero — most of a feature
// window, which is one-hot indicators — takes one step instead of eight,
// to the same value.
func (d Digest) U64(v uint64) Digest {
	if v == 0 {
		return d * fnvZeroWord
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

// Floats mixes a feature vector.
func (d Digest) Floats(vs []float64) Digest {
	for _, v := range vs {
		d = d.F64(v)
	}
	return d
}

// Floats32 mixes a float32 feature vector through the same float64 bit
// pattern as Floats, so a window digested from the batched float32
// scoring path matches the float64 path digest when the values are
// exactly representable (feature vectors are: indicators and small
// fixed-point ratios).
func (d Digest) Floats32(vs []float32) Digest {
	for _, v := range vs {
		d = d.F64(float64(v))
	}
	return d
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

// DigestFloats fingerprints one flattened feature window.
func DigestFloats(vs []float64) Digest { return NewDigest().Floats(vs) }

// DigestFloats32 fingerprints one flattened float32 feature window.
func DigestFloats32(vs []float32) Digest { return NewDigest().Floats32(vs) }

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
