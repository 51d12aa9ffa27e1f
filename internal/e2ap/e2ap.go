// Package e2ap implements the E2 Application Protocol (O-RAN WG3 E2AP)
// subset the 6G-XSec framework uses: E2 Setup, RIC Subscription
// (request/response/failure/delete), RIC Indication (the report primitive
// that carries telemetry), RIC Control (request/ack/failure, the
// closed-loop feedback primitive), and Error Indication.
//
// E2AP is a union of procedure PDUs; this package models it as a single
// Message struct with a Type discriminator, TLV-encoded via asn1lite and
// framed over internal/wire (substituting for ASN.1 PER over SCTP, see
// DESIGN.md §1).
package e2ap

import (
	"errors"
	"fmt"

	"github.com/6g-xsec/xsec/internal/asn1lite"
)

// MessageType discriminates E2AP procedure PDUs.
type MessageType uint8

// E2AP message types.
const (
	TypeInvalid MessageType = iota
	TypeE2SetupRequest
	TypeE2SetupResponse
	TypeE2SetupFailure
	TypeSubscriptionRequest
	TypeSubscriptionResponse
	TypeSubscriptionFailure
	TypeSubscriptionDeleteRequest
	TypeSubscriptionDeleteResponse
	TypeIndication
	TypeControlRequest
	TypeControlAck
	TypeControlFailure
	TypeErrorIndication
	typeCount
)

var typeNames = [...]string{
	"Invalid",
	"E2SetupRequest", "E2SetupResponse", "E2SetupFailure",
	"RICSubscriptionRequest", "RICSubscriptionResponse", "RICSubscriptionFailure",
	"RICSubscriptionDeleteRequest", "RICSubscriptionDeleteResponse",
	"RICIndication",
	"RICControlRequest", "RICControlAcknowledge", "RICControlFailure",
	"ErrorIndication",
}

// String returns the E2AP procedure name.
func (t MessageType) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("MessageType(%d)", uint8(t))
}

// Valid reports whether t is a defined type.
func (t MessageType) Valid() bool { return t > TypeInvalid && t < typeCount }

// ActionType is the E2 action kind within a subscription (§2.1 of the
// paper: report, insert, control, policy).
type ActionType uint8

// Action types.
const (
	ActionReport ActionType = iota
	ActionInsert
	ActionPolicy
)

// String returns the action name.
func (a ActionType) String() string {
	switch a {
	case ActionReport:
		return "report"
	case ActionInsert:
		return "insert"
	case ActionPolicy:
		return "policy"
	}
	return fmt.Sprintf("ActionType(%d)", uint8(a))
}

// RANFunction describes one service model exposed by an E2 node.
type RANFunction struct {
	ID  uint16
	OID string // service-model object identifier
	// Definition is the E2SM-specific function description.
	Definition []byte
}

// Action is one requested action within a RIC subscription.
type Action struct {
	ID   uint16
	Type ActionType
	// Definition is the E2SM-specific action definition.
	Definition []byte
}

// RequestID identifies an xApp's request (requestor + instance), echoed
// in all responses and indications for the subscription.
type RequestID struct {
	Requestor uint32
	Instance  uint32
}

// String renders "requestor/instance".
func (r RequestID) String() string { return fmt.Sprintf("%d/%d", r.Requestor, r.Instance) }

// Message is one E2AP PDU. Only the fields relevant to Type are
// populated; see the constructors for the per-procedure field sets.
type Message struct {
	Type          MessageType
	TransactionID uint64

	// E2 Setup.
	NodeID       string
	RANFunctions []RANFunction

	// Subscription / indication / control routing.
	RequestID     RequestID
	RANFunctionID uint16

	// Subscription contents.
	EventTrigger []byte
	Actions      []Action
	// AdmittedActions lists action IDs accepted in a response.
	AdmittedActions []uint16

	// Indication contents.
	ActionID          uint16
	IndicationSN      uint64
	IndicationHeader  []byte
	IndicationMessage []byte

	// Control contents.
	ControlHeader  []byte
	ControlMessage []byte

	// Failure / error cause.
	Cause string
}

// Reset clears m for reuse, retaining the capacity of its slice fields.
// A Message cycled through Reset + DecodeInto amortizes to zero
// allocations per PDU on the ingest hot path. Note that byte fields keep
// their empty-but-non-nil state after Reset, so a reused Message is not
// guaranteed to be DeepEqual to a freshly decoded one; the populated
// field values are identical.
func (m *Message) Reset() {
	m.Type = TypeInvalid
	m.TransactionID = 0
	m.NodeID = ""
	m.RANFunctions = m.RANFunctions[:0]
	m.RequestID = RequestID{}
	m.RANFunctionID = 0
	m.EventTrigger = m.EventTrigger[:0]
	m.Actions = m.Actions[:0]
	m.AdmittedActions = m.AdmittedActions[:0]
	m.ActionID = 0
	m.IndicationSN = 0
	m.IndicationHeader = m.IndicationHeader[:0]
	m.IndicationMessage = m.IndicationMessage[:0]
	m.ControlHeader = m.ControlHeader[:0]
	m.ControlMessage = m.ControlMessage[:0]
	m.Cause = ""
}

// appendField copies raw into dst's storage, preserving the decode
// contract that an empty field yields an empty non-nil slice (so encode →
// decode round-trips distinguish "absent" from "present but empty").
func appendField(dst, raw []byte) []byte {
	if len(raw) == 0 {
		if dst == nil {
			return []byte{}
		}
		return dst[:0]
	}
	return append(dst[:0], raw...)
}

// TLV tags.
const (
	tagType          = 1
	tagTransactionID = 2
	tagNodeID        = 3
	tagRANFunction   = 4
	tagRequestor     = 5
	tagInstance      = 6
	tagRANFunctionID = 7
	tagEventTrigger  = 8
	tagAction        = 9
	tagAdmitted      = 10
	tagActionID      = 11
	tagIndicationSN  = 12
	tagIndHeader     = 13
	tagIndMessage    = 14
	tagCtrlHeader    = 15
	tagCtrlMessage   = 16
	tagCause         = 17

	// nested RANFunction tags
	tagRFID  = 1
	tagRFOID = 2
	tagRFDef = 3

	// nested Action tags
	tagActID   = 1
	tagActType = 2
	tagActDef  = 3
)

// MarshalTLV implements asn1lite.Marshaler.
func (m *Message) MarshalTLV(e *asn1lite.Encoder) {
	e.PutUint(tagType, uint64(m.Type))
	e.PutUint(tagTransactionID, m.TransactionID)
	if m.NodeID != "" {
		e.PutString(tagNodeID, m.NodeID)
	}
	for _, rf := range m.RANFunctions {
		rf := rf
		e.PutNested(tagRANFunction, func(inner *asn1lite.Encoder) {
			inner.PutUint(tagRFID, uint64(rf.ID))
			inner.PutString(tagRFOID, rf.OID)
			inner.PutBytes(tagRFDef, rf.Definition)
		})
	}
	e.PutUint(tagRequestor, uint64(m.RequestID.Requestor))
	e.PutUint(tagInstance, uint64(m.RequestID.Instance))
	e.PutUint(tagRANFunctionID, uint64(m.RANFunctionID))
	if m.EventTrigger != nil {
		e.PutBytes(tagEventTrigger, m.EventTrigger)
	}
	for _, a := range m.Actions {
		a := a
		e.PutNested(tagAction, func(inner *asn1lite.Encoder) {
			inner.PutUint(tagActID, uint64(a.ID))
			inner.PutUint(tagActType, uint64(a.Type))
			inner.PutBytes(tagActDef, a.Definition)
		})
	}
	for _, id := range m.AdmittedActions {
		e.PutUint(tagAdmitted, uint64(id))
	}
	e.PutUint(tagActionID, uint64(m.ActionID))
	e.PutUint(tagIndicationSN, m.IndicationSN)
	if m.IndicationHeader != nil {
		e.PutBytes(tagIndHeader, m.IndicationHeader)
	}
	if m.IndicationMessage != nil {
		e.PutBytes(tagIndMessage, m.IndicationMessage)
	}
	if m.ControlHeader != nil {
		e.PutBytes(tagCtrlHeader, m.ControlHeader)
	}
	if m.ControlMessage != nil {
		e.PutBytes(tagCtrlMessage, m.ControlMessage)
	}
	if m.Cause != "" {
		e.PutString(tagCause, m.Cause)
	}
}

// ownField is appendField for a PDU whose bytes the decoder owns: a
// non-empty raw becomes the field as it is, capped at its length, so the
// field aliases the PDU instead of copying it.
func ownField(dst, raw []byte, owned bool) []byte {
	if !owned || len(raw) == 0 {
		return appendField(dst, raw)
	}
	return raw[:len(raw):len(raw)]
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *Message) UnmarshalTLV(d *asn1lite.Decoder) error { return m.unmarshal(d, false) }

// unmarshal decodes the fields d holds; with owned, the byte fields alias
// the PDU (ownField).
func (m *Message) unmarshal(d *asn1lite.Decoder, owned bool) error {
	for d.Next() {
		var err error
		switch d.Tag() {
		case tagType:
			var v uint64
			v, err = d.Uint()
			m.Type = MessageType(v)
		case tagTransactionID:
			m.TransactionID, err = d.Uint()
		case tagNodeID:
			m.NodeID, err = d.String()
		case tagRANFunction:
			var rf RANFunction
			err = decodeRANFunction(d, &rf)
			m.RANFunctions = append(m.RANFunctions, rf)
		case tagRequestor:
			var v uint64
			v, err = d.Uint()
			m.RequestID.Requestor = uint32(v)
		case tagInstance:
			var v uint64
			v, err = d.Uint()
			m.RequestID.Instance = uint32(v)
		case tagRANFunctionID:
			var v uint64
			v, err = d.Uint()
			m.RANFunctionID = uint16(v)
		case tagEventTrigger:
			m.EventTrigger = ownField(m.EventTrigger, d.RawValue(), owned)
		case tagAction:
			var a Action
			err = decodeAction(d, &a)
			m.Actions = append(m.Actions, a)
		case tagAdmitted:
			var v uint64
			v, err = d.Uint()
			m.AdmittedActions = append(m.AdmittedActions, uint16(v))
		case tagActionID:
			var v uint64
			v, err = d.Uint()
			m.ActionID = uint16(v)
		case tagIndicationSN:
			m.IndicationSN, err = d.Uint()
		case tagIndHeader:
			m.IndicationHeader = ownField(m.IndicationHeader, d.RawValue(), owned)
		case tagIndMessage:
			m.IndicationMessage = ownField(m.IndicationMessage, d.RawValue(), owned)
		case tagCtrlHeader:
			m.ControlHeader = ownField(m.ControlHeader, d.RawValue(), owned)
		case tagCtrlMessage:
			m.ControlMessage = ownField(m.ControlMessage, d.RawValue(), owned)
		case tagCause:
			m.Cause, err = d.String()
		}
		if err != nil {
			return fmt.Errorf("e2ap: tag %d: %w", d.Tag(), err)
		}
	}
	return d.Err()
}

func decodeRANFunction(d *asn1lite.Decoder, rf *RANFunction) error {
	sub, err := d.Nested()
	if err != nil {
		return err
	}
	for sub.Next() {
		switch sub.Tag() {
		case tagRFID:
			v, err := sub.Uint()
			if err != nil {
				return err
			}
			rf.ID = uint16(v)
		case tagRFOID:
			s, err := sub.String()
			if err != nil {
				return err
			}
			rf.OID = s
		case tagRFDef:
			b, err := sub.Bytes()
			if err != nil {
				return err
			}
			rf.Definition = b
		}
	}
	return sub.Err()
}

func decodeAction(d *asn1lite.Decoder, a *Action) error {
	sub, err := d.Nested()
	if err != nil {
		return err
	}
	for sub.Next() {
		switch sub.Tag() {
		case tagActID:
			v, err := sub.Uint()
			if err != nil {
				return err
			}
			a.ID = uint16(v)
		case tagActType:
			v, err := sub.Uint()
			if err != nil {
				return err
			}
			a.Type = ActionType(v)
		case tagActDef:
			b, err := sub.Bytes()
			if err != nil {
				return err
			}
			a.Definition = b
		}
	}
	return sub.Err()
}

// ErrBadMessage reports a structurally invalid E2AP PDU.
var ErrBadMessage = errors.New("e2ap: invalid message")

// AppendEncode serializes m, appending to dst, and returns the extended
// slice. Once dst has steady-state capacity the call performs zero heap
// allocations (the encoder lives on the caller's stack and the concrete
// MarshalTLV call does not escape it), which is what the per-indication
// send path needs at fleet scale.
func AppendEncode(dst []byte, m *Message) []byte {
	e := asn1lite.NewEncoder(dst)
	m.MarshalTLV(&e)
	return e.Bytes()
}

// Decode parses a message and validates its type.
func Decode(data []byte) (*Message, error) { return decode(data, false) }

// decodeOwned is Decode for a PDU the caller hands over and never touches
// again: the byte fields are views of data, not copies.
func decodeOwned(data []byte) (*Message, error) { return decode(data, true) }

func decode(data []byte, owned bool) (*Message, error) {
	var m Message
	if err := m.unmarshal(asn1lite.NewDecoder(data), owned); err != nil {
		return nil, err
	}
	if !m.Type.Valid() {
		return nil, fmt.Errorf("type %d: %w", m.Type, ErrBadMessage)
	}
	return &m, nil
}

// DecodeInto parses data into m, reusing m's allocated capacity. It is
// the hot-path counterpart of Decode: a Message cycled through DecodeInto
// reaches zero allocations per PDU once its byte fields have grown to the
// working sizes. Unlike Decode, absent byte fields may come back empty
// rather than nil on a reused m (see Reset); all populated values are
// identical to Decode's.
func DecodeInto(data []byte, m *Message) error {
	m.Reset()
	var d asn1lite.Decoder
	d.Reset(data)
	if err := m.UnmarshalTLV(&d); err != nil {
		return err
	}
	if !m.Type.Valid() {
		return fmt.Errorf("type %d: %w", m.Type, ErrBadMessage)
	}
	return nil
}
