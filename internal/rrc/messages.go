// Package rrc models the NR Radio Resource Control protocol (3GPP
// TS 38.331) at the fidelity 6G-XSec's telemetry and attack scenarios
// require: connection establishment, security activation, information
// transfer (NAS piggybacking), reconfiguration, reestablishment, and
// release.
//
// Each procedure message is its own type implementing Message; Encode and
// Decode convert to and from the asn1lite wire form used on the simulated
// Uu/F1 path.
package rrc

import (
	"fmt"

	"github.com/6g-xsec/xsec/internal/asn1lite"
	"github.com/6g-xsec/xsec/internal/cell"
)

// MsgType enumerates the RRC messages the simulator exchanges.
type MsgType uint8

// RRC message types. The names match TS 38.331 message names; the paper's
// figures abbreviate them (e.g. "RRC Conn." = RRCSetupRequest).
const (
	TypeInvalid MsgType = iota
	TypeSetupRequest
	TypeSetup
	TypeSetupComplete
	TypeReject
	TypeSecurityModeCommand
	TypeSecurityModeComplete
	TypeSecurityModeFailure
	TypeReconfiguration
	TypeReconfigurationComplete
	TypeULInformationTransfer
	TypeDLInformationTransfer
	TypeReestablishmentRequest
	TypeReestablishment
	TypeRelease
	typeCount
)

var typeNames = [...]string{
	"Invalid",
	"RRCSetupRequest",
	"RRCSetup",
	"RRCSetupComplete",
	"RRCReject",
	"RRCSecurityModeCommand",
	"RRCSecurityModeComplete",
	"RRCSecurityModeFailure",
	"RRCReconfiguration",
	"RRCReconfigurationComplete",
	"ULInformationTransfer",
	"DLInformationTransfer",
	"RRCReestablishmentRequest",
	"RRCReestablishment",
	"RRCRelease",
}

// String returns the TS 38.331 message name.
func (t MsgType) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Valid reports whether t is a defined message type.
func (t MsgType) Valid() bool { return t > TypeInvalid && t < typeCount }

// Message is implemented by all RRC messages.
type Message interface {
	asn1lite.Marshaler
	// Type identifies the message.
	Type() MsgType
	// Direction reports whether the message is sent by the UE (uplink)
	// or the network (downlink).
	Direction() cell.Direction
}

// UEIdentityKind distinguishes the identity variants a SetupRequest may
// carry (TS 38.331 InitialUE-Identity).
type UEIdentityKind uint8

// Identity kinds.
const (
	// IdentityRandom is a 39-bit random value used on first contact.
	IdentityRandom UEIdentityKind = iota
	// IdentityTMSI is the ng-5G-S-TMSI-Part1 of a previously registered
	// UE. Replaying a victim's TMSI here is the basis of the Blind DoS
	// attack.
	IdentityTMSI
)

// UEIdentity is the initial UE identity in an RRC setup request.
type UEIdentity struct {
	Kind   UEIdentityKind
	Random uint64    // 39-bit random value when Kind == IdentityRandom
	TMSI   cell.TMSI // when Kind == IdentityTMSI
}

// String renders the identity for diagnostics.
func (id UEIdentity) String() string {
	if id.Kind == IdentityTMSI {
		return "s-tmsi:" + id.TMSI.String()
	}
	return fmt.Sprintf("random:0x%010X", id.Random)
}

// Field tags shared by the message encodings.
const (
	tagIdentityKind = 1
	tagRandom       = 2
	tagTMSI         = 3
	tagCause        = 4
	tagTransaction  = 5
	tagNASPDU       = 6
	tagCipherAlg    = 7
	tagIntegAlg     = 8
	tagWaitTime     = 9
	tagReleaseCause = 10
	tagRNTI         = 11
	tagPLMN         = 12
	tagSRBCount     = 13
)

// SetupRequest (UL) initiates an RRC connection ("RRC Conn." in Figure 2).
type SetupRequest struct {
	Identity UEIdentity
	Cause    cell.EstablishmentCause
}

// Type implements Message.
func (*SetupRequest) Type() MsgType { return TypeSetupRequest }

// Direction implements Message.
func (*SetupRequest) Direction() cell.Direction { return cell.Uplink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *SetupRequest) MarshalTLV(e *asn1lite.Encoder) {
	e.PutUint(tagIdentityKind, uint64(m.Identity.Kind))
	switch m.Identity.Kind {
	case IdentityRandom:
		e.PutUint(tagRandom, m.Identity.Random)
	case IdentityTMSI:
		e.PutUint(tagTMSI, uint64(m.Identity.TMSI))
	}
	e.PutUint(tagCause, uint64(m.Cause))
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *SetupRequest) UnmarshalTLV(d *asn1lite.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case tagIdentityKind:
			v, err := d.Uint()
			if err != nil {
				return err
			}
			m.Identity.Kind = UEIdentityKind(v)
		case tagRandom:
			v, err := d.Uint()
			if err != nil {
				return err
			}
			m.Identity.Random = v
		case tagTMSI:
			v, err := d.Uint()
			if err != nil {
				return err
			}
			m.Identity.TMSI = cell.TMSI(v)
		case tagCause:
			v, err := d.Uint()
			if err != nil {
				return err
			}
			m.Cause = cell.EstablishmentCause(v)
		}
	}
	// The identity is the declared kind's field alone: a field of the
	// other kind is not part of the message, and Encode drops it.
	switch m.Identity.Kind {
	case IdentityRandom:
		m.Identity.TMSI = 0
	case IdentityTMSI:
		m.Identity.Random = 0
	default:
		m.Identity.Random, m.Identity.TMSI = 0, 0
	}
	return d.Err()
}

// Setup (DL) admits the UE and configures SRB1 ("RRC Setup" in Figure 2).
type Setup struct {
	TransactionID uint8
	SRBCount      uint8 // configured signalling radio bearers
}

// Type implements Message.
func (*Setup) Type() MsgType { return TypeSetup }

// Direction implements Message.
func (*Setup) Direction() cell.Direction { return cell.Downlink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *Setup) MarshalTLV(e *asn1lite.Encoder) {
	e.PutUint(tagTransaction, uint64(m.TransactionID))
	e.PutUint(tagSRBCount, uint64(m.SRBCount))
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *Setup) UnmarshalTLV(d *asn1lite.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case tagTransaction:
			v, err := d.Uint()
			if err != nil {
				return err
			}
			m.TransactionID = uint8(v)
		case tagSRBCount:
			v, err := d.Uint()
			if err != nil {
				return err
			}
			m.SRBCount = uint8(v)
		}
	}
	return d.Err()
}

// SetupComplete (UL) finishes establishment and piggybacks the first NAS
// message ("RRC Comp." in Figure 2; the NAS PDU is typically a
// Registration Request).
type SetupComplete struct {
	TransactionID uint8
	SelectedPLMN  string
	NASPDU        []byte
}

// Type implements Message.
func (*SetupComplete) Type() MsgType { return TypeSetupComplete }

// Direction implements Message.
func (*SetupComplete) Direction() cell.Direction { return cell.Uplink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *SetupComplete) MarshalTLV(e *asn1lite.Encoder) {
	e.PutUint(tagTransaction, uint64(m.TransactionID))
	e.PutString(tagPLMN, m.SelectedPLMN)
	e.PutBytes(tagNASPDU, m.NASPDU)
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *SetupComplete) UnmarshalTLV(d *asn1lite.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case tagTransaction:
			v, err := d.Uint()
			if err != nil {
				return err
			}
			m.TransactionID = uint8(v)
		case tagPLMN:
			s, err := d.String()
			if err != nil {
				return err
			}
			m.SelectedPLMN = s
		case tagNASPDU:
			b, err := d.Bytes()
			if err != nil {
				return err
			}
			m.NASPDU = b
		}
	}
	return d.Err()
}

// Reject (DL) denies establishment, e.g. under overload — the visible
// symptom of a successful BTS DoS.
type Reject struct {
	WaitTime uint8 // seconds the UE must back off
}

// Type implements Message.
func (*Reject) Type() MsgType { return TypeReject }

// Direction implements Message.
func (*Reject) Direction() cell.Direction { return cell.Downlink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *Reject) MarshalTLV(e *asn1lite.Encoder) {
	e.PutUint(tagWaitTime, uint64(m.WaitTime))
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *Reject) UnmarshalTLV(d *asn1lite.Decoder) error {
	for d.Next() {
		if d.Tag() == tagWaitTime {
			v, err := d.Uint()
			if err != nil {
				return err
			}
			m.WaitTime = uint8(v)
		}
	}
	return d.Err()
}

// SecurityModeCommand (DL) activates AS security with the selected
// algorithms. A command selecting NEA0/NIA0 outside emergency service is
// the Null Cipher & Integrity attack signature.
type SecurityModeCommand struct {
	TransactionID uint8
	CipherAlg     cell.CipherAlg
	IntegAlg      cell.IntegAlg
}

// Type implements Message.
func (*SecurityModeCommand) Type() MsgType { return TypeSecurityModeCommand }

// Direction implements Message.
func (*SecurityModeCommand) Direction() cell.Direction { return cell.Downlink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *SecurityModeCommand) MarshalTLV(e *asn1lite.Encoder) {
	e.PutUint(tagTransaction, uint64(m.TransactionID))
	e.PutUint(tagCipherAlg, uint64(m.CipherAlg))
	e.PutUint(tagIntegAlg, uint64(m.IntegAlg))
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *SecurityModeCommand) UnmarshalTLV(d *asn1lite.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case tagTransaction:
			v, err := d.Uint()
			if err != nil {
				return err
			}
			m.TransactionID = uint8(v)
		case tagCipherAlg:
			v, err := d.Uint()
			if err != nil {
				return err
			}
			m.CipherAlg = cell.CipherAlg(v)
		case tagIntegAlg:
			v, err := d.Uint()
			if err != nil {
				return err
			}
			m.IntegAlg = cell.IntegAlg(v)
		}
	}
	return d.Err()
}

// SecurityModeComplete (UL) confirms AS security activation.
type SecurityModeComplete struct {
	TransactionID uint8
}

// Type implements Message.
func (*SecurityModeComplete) Type() MsgType { return TypeSecurityModeComplete }

// Direction implements Message.
func (*SecurityModeComplete) Direction() cell.Direction { return cell.Uplink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *SecurityModeComplete) MarshalTLV(e *asn1lite.Encoder) {
	e.PutUint(tagTransaction, uint64(m.TransactionID))
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *SecurityModeComplete) UnmarshalTLV(d *asn1lite.Decoder) error {
	return decodeTransactionOnly(d, &m.TransactionID)
}

// SecurityModeFailure (UL) rejects AS security activation.
type SecurityModeFailure struct {
	TransactionID uint8
}

// Type implements Message.
func (*SecurityModeFailure) Type() MsgType { return TypeSecurityModeFailure }

// Direction implements Message.
func (*SecurityModeFailure) Direction() cell.Direction { return cell.Uplink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *SecurityModeFailure) MarshalTLV(e *asn1lite.Encoder) {
	e.PutUint(tagTransaction, uint64(m.TransactionID))
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *SecurityModeFailure) UnmarshalTLV(d *asn1lite.Decoder) error {
	return decodeTransactionOnly(d, &m.TransactionID)
}

// Reconfiguration (DL) reconfigures the connection (bearer setup after
// registration).
type Reconfiguration struct {
	TransactionID uint8
	NASPDU        []byte // optional piggybacked NAS
}

// Type implements Message.
func (*Reconfiguration) Type() MsgType { return TypeReconfiguration }

// Direction implements Message.
func (*Reconfiguration) Direction() cell.Direction { return cell.Downlink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *Reconfiguration) MarshalTLV(e *asn1lite.Encoder) {
	e.PutUint(tagTransaction, uint64(m.TransactionID))
	if len(m.NASPDU) > 0 {
		e.PutBytes(tagNASPDU, m.NASPDU)
	}
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *Reconfiguration) UnmarshalTLV(d *asn1lite.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case tagTransaction:
			v, err := d.Uint()
			if err != nil {
				return err
			}
			m.TransactionID = uint8(v)
		case tagNASPDU:
			b, err := d.Bytes()
			if err != nil {
				return err
			}
			m.NASPDU = b
		}
	}
	return d.Err()
}

// ReconfigurationComplete (UL) confirms reconfiguration.
type ReconfigurationComplete struct {
	TransactionID uint8
}

// Type implements Message.
func (*ReconfigurationComplete) Type() MsgType { return TypeReconfigurationComplete }

// Direction implements Message.
func (*ReconfigurationComplete) Direction() cell.Direction { return cell.Uplink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *ReconfigurationComplete) MarshalTLV(e *asn1lite.Encoder) {
	e.PutUint(tagTransaction, uint64(m.TransactionID))
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *ReconfigurationComplete) UnmarshalTLV(d *asn1lite.Decoder) error {
	return decodeTransactionOnly(d, &m.TransactionID)
}

// ULInformationTransfer (UL) carries a NAS PDU from UE to network.
type ULInformationTransfer struct {
	NASPDU []byte
}

// Type implements Message.
func (*ULInformationTransfer) Type() MsgType { return TypeULInformationTransfer }

// Direction implements Message.
func (*ULInformationTransfer) Direction() cell.Direction { return cell.Uplink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *ULInformationTransfer) MarshalTLV(e *asn1lite.Encoder) {
	e.PutBytes(tagNASPDU, m.NASPDU)
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *ULInformationTransfer) UnmarshalTLV(d *asn1lite.Decoder) error {
	return decodeNASPDUOnly(d, &m.NASPDU)
}

// DLInformationTransfer (DL) carries a NAS PDU from network to UE.
type DLInformationTransfer struct {
	NASPDU []byte
}

// Type implements Message.
func (*DLInformationTransfer) Type() MsgType { return TypeDLInformationTransfer }

// Direction implements Message.
func (*DLInformationTransfer) Direction() cell.Direction { return cell.Downlink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *DLInformationTransfer) MarshalTLV(e *asn1lite.Encoder) {
	e.PutBytes(tagNASPDU, m.NASPDU)
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *DLInformationTransfer) UnmarshalTLV(d *asn1lite.Decoder) error {
	return decodeNASPDUOnly(d, &m.NASPDU)
}

// ReestablishmentRequest (UL) asks to resume after radio-link failure.
type ReestablishmentRequest struct {
	RNTI  cell.RNTI // C-RNTI of the failed connection
	Cause cell.EstablishmentCause
}

// Type implements Message.
func (*ReestablishmentRequest) Type() MsgType { return TypeReestablishmentRequest }

// Direction implements Message.
func (*ReestablishmentRequest) Direction() cell.Direction { return cell.Uplink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *ReestablishmentRequest) MarshalTLV(e *asn1lite.Encoder) {
	e.PutUint(tagRNTI, uint64(m.RNTI))
	e.PutUint(tagCause, uint64(m.Cause))
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *ReestablishmentRequest) UnmarshalTLV(d *asn1lite.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case tagRNTI:
			v, err := d.Uint()
			if err != nil {
				return err
			}
			m.RNTI = cell.RNTI(v)
		case tagCause:
			v, err := d.Uint()
			if err != nil {
				return err
			}
			m.Cause = cell.EstablishmentCause(v)
		}
	}
	return d.Err()
}

// Reestablishment (DL) accepts a reestablishment request.
type Reestablishment struct {
	TransactionID uint8
}

// Type implements Message.
func (*Reestablishment) Type() MsgType { return TypeReestablishment }

// Direction implements Message.
func (*Reestablishment) Direction() cell.Direction { return cell.Downlink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *Reestablishment) MarshalTLV(e *asn1lite.Encoder) {
	e.PutUint(tagTransaction, uint64(m.TransactionID))
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *Reestablishment) UnmarshalTLV(d *asn1lite.Decoder) error {
	return decodeTransactionOnly(d, &m.TransactionID)
}

// ReleaseCause enumerates why the network released a connection.
type ReleaseCause uint8

// Release causes.
const (
	ReleaseOther ReleaseCause = iota
	ReleaseLoadBalancing
	ReleaseDeregistration
	ReleaseRLF // radio link failure detected by the network
)

// Release (DL) tears down the RRC connection.
type Release struct {
	Cause ReleaseCause
}

// Type implements Message.
func (*Release) Type() MsgType { return TypeRelease }

// Direction implements Message.
func (*Release) Direction() cell.Direction { return cell.Downlink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *Release) MarshalTLV(e *asn1lite.Encoder) {
	e.PutUint(tagReleaseCause, uint64(m.Cause))
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *Release) UnmarshalTLV(d *asn1lite.Decoder) error {
	for d.Next() {
		if d.Tag() == tagReleaseCause {
			v, err := d.Uint()
			if err != nil {
				return err
			}
			m.Cause = ReleaseCause(v)
		}
	}
	return d.Err()
}

func decodeTransactionOnly(d *asn1lite.Decoder, out *uint8) error {
	for d.Next() {
		if d.Tag() == tagTransaction {
			v, err := d.Uint()
			if err != nil {
				return err
			}
			*out = uint8(v)
		}
	}
	return d.Err()
}

func decodeNASPDUOnly(d *asn1lite.Decoder, out *[]byte) error {
	for d.Next() {
		if d.Tag() == tagNASPDU {
			b, err := d.Bytes()
			if err != nil {
				return err
			}
			*out = b
		}
	}
	return d.Err()
}
