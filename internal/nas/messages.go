// Package nas models the 5G Mobility Management (5GMM) subset of the
// Non-Access-Stratum protocol (3GPP TS 24.501) that the 6G-XSec telemetry
// and attacks exercise: registration, primary (5G-AKA) authentication,
// identity procedures, NAS security mode control, service requests, and
// deregistration.
//
// NAS PDUs ride inside RRC information-transfer messages and are relayed
// by the CU to the AMF over NGAP; the CU's RIC agent decodes them to
// populate MobiFlow telemetry (Table 1 of the paper: NAS message, S-TMSI,
// SUPI, cipher/integrity algorithms).
package nas

import (
	"fmt"

	"github.com/6g-xsec/xsec/internal/asn1lite"
	"github.com/6g-xsec/xsec/internal/cell"
)

// MsgType enumerates the 5GMM messages the simulator exchanges.
type MsgType uint8

// NAS 5GMM message types.
const (
	TypeInvalid MsgType = iota
	TypeRegistrationRequest
	TypeRegistrationAccept
	TypeRegistrationComplete
	TypeRegistrationReject
	TypeAuthenticationRequest
	TypeAuthenticationResponse
	TypeAuthenticationFailure
	TypeSecurityModeCommand
	TypeSecurityModeComplete
	TypeSecurityModeReject
	TypeIdentityRequest
	TypeIdentityResponse
	TypeServiceRequest
	TypeServiceAccept
	TypeDeregistrationRequest
	TypeDeregistrationAccept
	typeCount
)

var typeNames = [...]string{
	"Invalid",
	"RegistrationRequest",
	"RegistrationAccept",
	"RegistrationComplete",
	"RegistrationReject",
	"AuthenticationRequest",
	"AuthenticationResponse",
	"AuthenticationFailure",
	"NASSecurityModeCommand",
	"NASSecurityModeComplete",
	"NASSecurityModeReject",
	"IdentityRequest",
	"IdentityResponse",
	"ServiceRequest",
	"ServiceAccept",
	"DeregistrationRequest",
	"DeregistrationAccept",
}

// String returns the TS 24.501 message name (security-mode messages are
// prefixed "NAS" to distinguish them from their RRC counterparts in
// telemetry).
func (t MsgType) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// Valid reports whether t is a defined message type.
func (t MsgType) Valid() bool { return t > TypeInvalid && t < typeCount }

// Message is implemented by all NAS messages.
type Message interface {
	asn1lite.Marshaler
	// Type identifies the message.
	Type() MsgType
	// Direction reports UE→network (uplink) or network→UE (downlink).
	Direction() cell.Direction
}

// IdentityType selects which identity an IdentityRequest asks for
// (TS 24.501 §9.11.3.3).
type IdentityType uint8

// Identity types.
const (
	IdentitySUCI IdentityType = 1
	IdentityGUTI IdentityType = 2
	IdentityIMEI IdentityType = 3
)

// String returns the identity-type name.
func (t IdentityType) String() string {
	switch t {
	case IdentitySUCI:
		return "SUCI"
	case IdentityGUTI:
		return "5G-GUTI"
	case IdentityIMEI:
		return "IMEI"
	}
	return fmt.Sprintf("IdentityType(%d)", uint8(t))
}

// MobileIdentity is the 5GS mobile identity IE: exactly one variant is
// populated.
type MobileIdentity struct {
	Type IdentityType
	SUCI cell.SUCI
	GUTI cell.GUTI
	IMEI string
}

// String renders the populated variant.
func (mi MobileIdentity) String() string {
	switch mi.Type {
	case IdentitySUCI:
		return mi.SUCI.String()
	case IdentityGUTI:
		return mi.GUTI.String()
	case IdentityIMEI:
		return "imei-" + mi.IMEI
	}
	return "identity-none"
}

// Field tags shared by the message encodings.
const (
	tagRegType    = 1
	tagIDType     = 2
	tagSUCIPLMN   = 3
	tagSUCIScheme = 4
	tagSUCIMSIN   = 5
	tagGUTIPLMN   = 6
	tagGUTISet    = 7
	tagGUTITMSI   = 8
	tagIMEI       = 9
	tagRAND       = 10
	tagAUTN       = 11
	tagRES        = 12
	tagNgKSI      = 13
	tagCipherAlg  = 14
	tagIntegAlg   = 15
	tagCause5GMM  = 16
	tagCapability = 17
	tagFollowOn   = 18
	tagSwitchOff  = 19
	tagWaitTime   = 20
)

func marshalIdentity(e *asn1lite.Encoder, mi MobileIdentity) {
	e.PutUint(tagIDType, uint64(mi.Type))
	switch mi.Type {
	case IdentitySUCI:
		e.PutString(tagSUCIPLMN, mi.SUCI.PLMN.MCC+mi.SUCI.PLMN.MNC)
		e.PutUint(tagSUCIScheme, uint64(mi.SUCI.Scheme))
		e.PutString(tagSUCIMSIN, mi.SUCI.MSIN)
	case IdentityGUTI:
		e.PutString(tagGUTIPLMN, mi.GUTI.PLMN.MCC+mi.GUTI.PLMN.MNC)
		e.PutUint(tagGUTISet, uint64(mi.GUTI.AMFSetID))
		e.PutUint(tagGUTITMSI, uint64(mi.GUTI.TMSI))
	case IdentityIMEI:
		e.PutString(tagIMEI, mi.IMEI)
	}
}

func unmarshalIdentityField(d *asn1lite.Decoder, mi *MobileIdentity) (handled bool, err error) {
	switch d.Tag() {
	case tagIDType:
		v, err := d.Uint()
		if err != nil {
			return true, err
		}
		mi.Type = IdentityType(v)
	case tagSUCIPLMN:
		s, err := d.String()
		if err != nil {
			return true, err
		}
		mi.SUCI.PLMN = splitPLMN(s)
	case tagSUCIScheme:
		v, err := d.Uint()
		if err != nil {
			return true, err
		}
		mi.SUCI.Scheme = uint8(v)
	case tagSUCIMSIN:
		s, err := d.String()
		if err != nil {
			return true, err
		}
		mi.SUCI.MSIN = s
	case tagGUTIPLMN:
		s, err := d.String()
		if err != nil {
			return true, err
		}
		mi.GUTI.PLMN = splitPLMN(s)
	case tagGUTISet:
		v, err := d.Uint()
		if err != nil {
			return true, err
		}
		mi.GUTI.AMFSetID = uint16(v)
	case tagGUTITMSI:
		v, err := d.Uint()
		if err != nil {
			return true, err
		}
		mi.GUTI.TMSI = cell.TMSI(v)
	case tagIMEI:
		s, err := d.String()
		if err != nil {
			return true, err
		}
		mi.IMEI = s
	default:
		return false, nil
	}
	return true, nil
}

// declared is mi with only the variant its Type names: the IE carries
// exactly one, and marshalIdentity writes that one alone, so a field of
// another variant on the wire is not part of the message.
func (mi MobileIdentity) declared() MobileIdentity {
	out := MobileIdentity{Type: mi.Type}
	switch mi.Type {
	case IdentitySUCI:
		out.SUCI = mi.SUCI
	case IdentityGUTI:
		out.GUTI = mi.GUTI
	case IdentityIMEI:
		out.IMEI = mi.IMEI
	}
	return out
}

func splitPLMN(s string) cell.PLMN {
	if len(s) < 5 {
		return cell.PLMN{}
	}
	return cell.PLMN{MCC: s[:3], MNC: s[3:]}
}

// RegistrationType distinguishes initial from mobility/periodic
// registration.
type RegistrationType uint8

// Registration types.
const (
	RegInitial RegistrationType = iota
	RegMobilityUpdate
	RegPeriodicUpdate
	RegEmergency
)

// RegistrationRequest (UL) starts registration ("Reg. Req." in Figure 2).
type RegistrationRequest struct {
	RegType    RegistrationType
	Identity   MobileIdentity
	Capability uint32 // bitmask of supported NEA/NIA algorithms
	FollowOn   bool   // follow-on request pending
}

// Type implements Message.
func (*RegistrationRequest) Type() MsgType { return TypeRegistrationRequest }

// Direction implements Message.
func (*RegistrationRequest) Direction() cell.Direction { return cell.Uplink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *RegistrationRequest) MarshalTLV(e *asn1lite.Encoder) {
	e.PutUint(tagRegType, uint64(m.RegType))
	marshalIdentity(e, m.Identity)
	e.PutUint(tagCapability, uint64(m.Capability))
	e.PutBool(tagFollowOn, m.FollowOn)
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *RegistrationRequest) UnmarshalTLV(d *asn1lite.Decoder) error {
	for d.Next() {
		if handled, err := unmarshalIdentityField(d, &m.Identity); err != nil {
			return err
		} else if handled {
			continue
		}
		switch d.Tag() {
		case tagRegType:
			v, err := d.Uint()
			if err != nil {
				return err
			}
			m.RegType = RegistrationType(v)
		case tagCapability:
			v, err := d.Uint()
			if err != nil {
				return err
			}
			m.Capability = uint32(v)
		case tagFollowOn:
			v, err := d.Bool()
			if err != nil {
				return err
			}
			m.FollowOn = v
		}
	}
	m.Identity = m.Identity.declared()
	return d.Err()
}

// RegistrationAccept (DL) completes registration and assigns a GUTI.
type RegistrationAccept struct {
	GUTI cell.GUTI
}

// Type implements Message.
func (*RegistrationAccept) Type() MsgType { return TypeRegistrationAccept }

// Direction implements Message.
func (*RegistrationAccept) Direction() cell.Direction { return cell.Downlink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *RegistrationAccept) MarshalTLV(e *asn1lite.Encoder) {
	marshalIdentity(e, MobileIdentity{Type: IdentityGUTI, GUTI: m.GUTI})
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *RegistrationAccept) UnmarshalTLV(d *asn1lite.Decoder) error {
	var mi MobileIdentity
	for d.Next() {
		if _, err := unmarshalIdentityField(d, &mi); err != nil {
			return err
		}
	}
	m.GUTI = mi.GUTI
	return d.Err()
}

// RegistrationComplete (UL) acknowledges the accept.
type RegistrationComplete struct{}

// Type implements Message.
func (*RegistrationComplete) Type() MsgType { return TypeRegistrationComplete }

// Direction implements Message.
func (*RegistrationComplete) Direction() cell.Direction { return cell.Uplink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *RegistrationComplete) MarshalTLV(e *asn1lite.Encoder) {}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *RegistrationComplete) UnmarshalTLV(d *asn1lite.Decoder) error {
	for d.Next() {
	}
	return d.Err()
}

// Cause5GMM is a 5GMM cause value (TS 24.501 §9.11.3.2).
type Cause5GMM uint8

// Selected 5GMM causes.
const (
	CauseIllegalUE            Cause5GMM = 3
	CausePLMNNotAllowed       Cause5GMM = 11
	CauseCongestion           Cause5GMM = 22
	CauseSecurityModeRejected Cause5GMM = 24
	CauseAuthFailureMACFail   Cause5GMM = 20 // MAC failure (from UE)
	CauseAuthFailureSynch     Cause5GMM = 21 // synch failure (from UE)
)

// RegistrationReject (DL) denies registration.
type RegistrationReject struct {
	Cause Cause5GMM
}

// Type implements Message.
func (*RegistrationReject) Type() MsgType { return TypeRegistrationReject }

// Direction implements Message.
func (*RegistrationReject) Direction() cell.Direction { return cell.Downlink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *RegistrationReject) MarshalTLV(e *asn1lite.Encoder) {
	e.PutUint(tagCause5GMM, uint64(m.Cause))
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *RegistrationReject) UnmarshalTLV(d *asn1lite.Decoder) error {
	return decodeCauseOnly(d, &m.Cause)
}

// AuthenticationRequest (DL) carries the 5G-AKA challenge ("Auth. Req." in
// Figure 2).
type AuthenticationRequest struct {
	NgKSI uint8
	RAND  [16]byte
	AUTN  [16]byte
}

// Type implements Message.
func (*AuthenticationRequest) Type() MsgType { return TypeAuthenticationRequest }

// Direction implements Message.
func (*AuthenticationRequest) Direction() cell.Direction { return cell.Downlink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *AuthenticationRequest) MarshalTLV(e *asn1lite.Encoder) {
	e.PutUint(tagNgKSI, uint64(m.NgKSI))
	e.PutBytes(tagRAND, m.RAND[:])
	e.PutBytes(tagAUTN, m.AUTN[:])
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *AuthenticationRequest) UnmarshalTLV(d *asn1lite.Decoder) error {
	for d.Next() {
		switch d.Tag() {
		case tagNgKSI:
			v, err := d.Uint()
			if err != nil {
				return err
			}
			m.NgKSI = uint8(v)
		case tagRAND:
			b, err := d.Bytes()
			if err != nil {
				return err
			}
			if len(b) != 16 {
				return fmt.Errorf("nas: RAND length %d: %w", len(b), asn1lite.ErrBadValue)
			}
			copy(m.RAND[:], b)
		case tagAUTN:
			b, err := d.Bytes()
			if err != nil {
				return err
			}
			if len(b) != 16 {
				return fmt.Errorf("nas: AUTN length %d: %w", len(b), asn1lite.ErrBadValue)
			}
			copy(m.AUTN[:], b)
		}
	}
	return d.Err()
}

// AuthenticationResponse (UL) carries RES* ("Auth. Resp." in Figure 2).
type AuthenticationResponse struct {
	RES []byte
}

// Type implements Message.
func (*AuthenticationResponse) Type() MsgType { return TypeAuthenticationResponse }

// Direction implements Message.
func (*AuthenticationResponse) Direction() cell.Direction { return cell.Uplink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *AuthenticationResponse) MarshalTLV(e *asn1lite.Encoder) {
	e.PutBytes(tagRES, m.RES)
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *AuthenticationResponse) UnmarshalTLV(d *asn1lite.Decoder) error {
	for d.Next() {
		if d.Tag() == tagRES {
			b, err := d.Bytes()
			if err != nil {
				return err
			}
			m.RES = b
		}
	}
	return d.Err()
}

// AuthenticationFailure (UL) rejects the challenge.
type AuthenticationFailure struct {
	Cause Cause5GMM
}

// Type implements Message.
func (*AuthenticationFailure) Type() MsgType { return TypeAuthenticationFailure }

// Direction implements Message.
func (*AuthenticationFailure) Direction() cell.Direction { return cell.Uplink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *AuthenticationFailure) MarshalTLV(e *asn1lite.Encoder) {
	e.PutUint(tagCause5GMM, uint64(m.Cause))
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *AuthenticationFailure) UnmarshalTLV(d *asn1lite.Decoder) error {
	return decodeCauseOnly(d, &m.Cause)
}

// SecurityModeCommand (DL) selects the NAS security algorithms. Selecting
// NEA0/NIA0 is the bid-down signature of the Null Cipher & Integrity
// attack.
type SecurityModeCommand struct {
	CipherAlg cell.CipherAlg
	IntegAlg  cell.IntegAlg
	NgKSI     uint8
}

// Type implements Message.
func (*SecurityModeCommand) Type() MsgType { return TypeSecurityModeCommand }

// Direction implements Message.
func (*SecurityModeCommand) Direction() cell.Direction { return cell.Downlink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *SecurityModeCommand) MarshalTLV(e *asn1lite.Encoder) {
	e.PutUint(tagCipherAlg, uint64(m.CipherAlg))
	e.PutUint(tagIntegAlg, uint64(m.IntegAlg))
	e.PutUint(tagNgKSI, uint64(m.NgKSI))
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *SecurityModeCommand) UnmarshalTLV(d *asn1lite.Decoder) error {
	for d.Next() {
		switch d.Tag() {
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
		case tagNgKSI:
			v, err := d.Uint()
			if err != nil {
				return err
			}
			m.NgKSI = uint8(v)
		}
	}
	return d.Err()
}

// SecurityModeComplete (UL) confirms NAS security.
type SecurityModeComplete struct{}

// Type implements Message.
func (*SecurityModeComplete) Type() MsgType { return TypeSecurityModeComplete }

// Direction implements Message.
func (*SecurityModeComplete) Direction() cell.Direction { return cell.Uplink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *SecurityModeComplete) MarshalTLV(e *asn1lite.Encoder) {}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *SecurityModeComplete) UnmarshalTLV(d *asn1lite.Decoder) error {
	for d.Next() {
	}
	return d.Err()
}

// SecurityModeReject (UL) rejects the proposed NAS security.
type SecurityModeReject struct {
	Cause Cause5GMM
}

// Type implements Message.
func (*SecurityModeReject) Type() MsgType { return TypeSecurityModeReject }

// Direction implements Message.
func (*SecurityModeReject) Direction() cell.Direction { return cell.Uplink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *SecurityModeReject) MarshalTLV(e *asn1lite.Encoder) {
	e.PutUint(tagCause5GMM, uint64(m.Cause))
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *SecurityModeReject) UnmarshalTLV(d *asn1lite.Decoder) error {
	return decodeCauseOnly(d, &m.Cause)
}

// IdentityRequest (DL) asks the UE to disclose an identity. Sent before
// NAS security activation it elicits a *plaintext* identity — the
// mechanism of both identity-extraction attacks.
type IdentityRequest struct {
	Requested IdentityType
}

// Type implements Message.
func (*IdentityRequest) Type() MsgType { return TypeIdentityRequest }

// Direction implements Message.
func (*IdentityRequest) Direction() cell.Direction { return cell.Downlink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *IdentityRequest) MarshalTLV(e *asn1lite.Encoder) {
	e.PutUint(tagIDType, uint64(m.Requested))
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *IdentityRequest) UnmarshalTLV(d *asn1lite.Decoder) error {
	for d.Next() {
		if d.Tag() == tagIDType {
			v, err := d.Uint()
			if err != nil {
				return err
			}
			m.Requested = IdentityType(v)
		}
	}
	return d.Err()
}

// IdentityResponse (UL) discloses the requested identity ("Iden. Resp." in
// Figure 2a).
type IdentityResponse struct {
	Identity MobileIdentity
}

// Type implements Message.
func (*IdentityResponse) Type() MsgType { return TypeIdentityResponse }

// Direction implements Message.
func (*IdentityResponse) Direction() cell.Direction { return cell.Uplink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *IdentityResponse) MarshalTLV(e *asn1lite.Encoder) {
	marshalIdentity(e, m.Identity)
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *IdentityResponse) UnmarshalTLV(d *asn1lite.Decoder) error {
	for d.Next() {
		if _, err := unmarshalIdentityField(d, &m.Identity); err != nil {
			return err
		}
	}
	m.Identity = m.Identity.declared()
	return d.Err()
}

// ServiceRequest (UL) resumes service for a registered UE.
type ServiceRequest struct {
	TMSI cell.TMSI
}

// Type implements Message.
func (*ServiceRequest) Type() MsgType { return TypeServiceRequest }

// Direction implements Message.
func (*ServiceRequest) Direction() cell.Direction { return cell.Uplink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *ServiceRequest) MarshalTLV(e *asn1lite.Encoder) {
	e.PutUint(tagGUTITMSI, uint64(m.TMSI))
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *ServiceRequest) UnmarshalTLV(d *asn1lite.Decoder) error {
	for d.Next() {
		if d.Tag() == tagGUTITMSI {
			v, err := d.Uint()
			if err != nil {
				return err
			}
			m.TMSI = cell.TMSI(v)
		}
	}
	return d.Err()
}

// ServiceAccept (DL) grants a service request.
type ServiceAccept struct{}

// Type implements Message.
func (*ServiceAccept) Type() MsgType { return TypeServiceAccept }

// Direction implements Message.
func (*ServiceAccept) Direction() cell.Direction { return cell.Downlink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *ServiceAccept) MarshalTLV(e *asn1lite.Encoder) {}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *ServiceAccept) UnmarshalTLV(d *asn1lite.Decoder) error {
	for d.Next() {
	}
	return d.Err()
}

// DeregistrationRequest (UL) detaches the UE.
type DeregistrationRequest struct {
	SwitchOff bool
}

// Type implements Message.
func (*DeregistrationRequest) Type() MsgType { return TypeDeregistrationRequest }

// Direction implements Message.
func (*DeregistrationRequest) Direction() cell.Direction { return cell.Uplink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *DeregistrationRequest) MarshalTLV(e *asn1lite.Encoder) {
	e.PutBool(tagSwitchOff, m.SwitchOff)
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *DeregistrationRequest) UnmarshalTLV(d *asn1lite.Decoder) error {
	for d.Next() {
		if d.Tag() == tagSwitchOff {
			v, err := d.Bool()
			if err != nil {
				return err
			}
			m.SwitchOff = v
		}
	}
	return d.Err()
}

// DeregistrationAccept (DL) confirms detach.
type DeregistrationAccept struct{}

// Type implements Message.
func (*DeregistrationAccept) Type() MsgType { return TypeDeregistrationAccept }

// Direction implements Message.
func (*DeregistrationAccept) Direction() cell.Direction { return cell.Downlink }

// MarshalTLV implements asn1lite.Marshaler.
func (m *DeregistrationAccept) MarshalTLV(e *asn1lite.Encoder) {}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (m *DeregistrationAccept) UnmarshalTLV(d *asn1lite.Decoder) error {
	for d.Next() {
	}
	return d.Err()
}

func decodeCauseOnly(d *asn1lite.Decoder, out *Cause5GMM) error {
	for d.Next() {
		if d.Tag() == tagCause5GMM {
			v, err := d.Uint()
			if err != nil {
				return err
			}
			*out = Cause5GMM(v)
		}
	}
	return d.Err()
}
