// Package cell defines the cellular identifiers, security algorithms, and
// shared enumerations used across the protocol stack (RRC, NAS, F1AP,
// NGAP), the gNodeB/UE simulators, and the MobiFlow telemetry schema.
//
// The definitions follow the 3GPP 5G system (TS 23.003 identifiers,
// TS 33.501 algorithm identifiers) at the granularity the 6G-XSec paper's
// telemetry requires (Table 1): RNTI, 5G-S-TMSI, SUPI/SUCI, ciphering and
// integrity algorithms, and RRC establishment causes.
package cell

import (
	"fmt"
	"strings"
)

// RNTI is a Radio Network Temporary Identifier assigned by the DU when a
// UE performs random access (C-RNTI, 16 bits).
type RNTI uint16

// InvalidRNTI marks an unassigned RNTI. 0 and 0xFFFF are reserved values
// in TS 38.321.
const InvalidRNTI RNTI = 0

// String formats the RNTI in the 0xNNNN form used throughout the paper.
func (r RNTI) String() string { return fmt.Sprintf("0x%04X", uint16(r)) }

// TMSI is the 32-bit 5G-S-TMSI assigned by the AMF. It is the temporary
// subscriber identity visible in unprotected RRC/NAS messages.
type TMSI uint32

// InvalidTMSI marks an unassigned TMSI.
const InvalidTMSI TMSI = 0

// String formats the TMSI as 0xNNNNNNNN.
func (t TMSI) String() string { return fmt.Sprintf("0x%08X", uint32(t)) }

// SUPI is the Subscription Permanent Identifier in its canonical
// "imsi-<15 digits>" form (TS 23.003 §2.2A).
type SUPI string

// Valid reports whether the SUPI has the canonical IMSI form.
func (s SUPI) Valid() bool {
	str := string(s)
	if !strings.HasPrefix(str, "imsi-") {
		return false
	}
	digits := str[len("imsi-"):]
	if len(digits) != 15 {
		return false
	}
	for _, c := range digits {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// PLMN identifies a network by mobile country and network code.
type PLMN struct {
	MCC string // 3 digits
	MNC string // 2 or 3 digits
}

// String returns "MCC-MNC".
func (p PLMN) String() string { return p.MCC + "-" + p.MNC }

// TestPLMN is the PLMN used by the simulated network (the 001/01 test
// network, as used by OAI testbeds).
var TestPLMN = PLMN{MCC: "001", MNC: "01"}

// SUCI is the Subscription Concealed Identifier: the privacy-preserving
// form of the SUPI transmitted during registration. In null-scheme
// (scheme 0) networks — which includes most testbeds — the MSIN is
// transmitted unconcealed, which is precisely what identity-extraction
// attacks exploit.
type SUCI struct {
	PLMN   PLMN
	Scheme uint8 // 0 = null scheme (plaintext MSIN)
	MSIN   string
}

// String renders the SUCI in a compact diagnostic form.
func (s SUCI) String() string {
	return fmt.Sprintf("suci-%s-%d-%s", s.PLMN, s.Scheme, s.MSIN)
}

// NullScheme reports whether the SUCI exposes its MSIN in plaintext.
func (s SUCI) NullScheme() bool { return s.Scheme == 0 }

// SUCIFromSUPI conceals a SUPI with the given protection scheme. Scheme 0
// keeps the MSIN in the clear.
func SUCIFromSUPI(supi SUPI, scheme uint8) (SUCI, error) {
	if !supi.Valid() {
		return SUCI{}, fmt.Errorf("cell: invalid SUPI %q", supi)
	}
	digits := string(supi)[len("imsi-"):]
	msin := digits[5:] // after MCC (3 digits) + MNC (2 digits)
	if scheme != 0 {
		// Non-null schemes mask the MSIN; we model concealment by
		// asterisks since real ECIES output is opaque anyway.
		msin = strings.Repeat("*", len(msin))
	}
	return SUCI{PLMN: PLMN{MCC: digits[:3], MNC: digits[3:5]}, Scheme: scheme, MSIN: msin}, nil
}

// GUTI is the 5G Globally Unique Temporary Identifier. The telemetry layer
// only needs the TMSI portion, but the AMF tracks the full structure.
type GUTI struct {
	PLMN     PLMN
	AMFSetID uint16
	TMSI     TMSI
}

// String renders the GUTI compactly.
func (g GUTI) String() string {
	return fmt.Sprintf("guti-%s-%d-%s", g.PLMN, g.AMFSetID, g.TMSI)
}

// CipherAlg is a 5G NR ciphering algorithm identifier (TS 33.501 §5.11.1.1).
type CipherAlg uint8

// Ciphering algorithms. NEA0 is the null cipher — its selection after a
// bid-down attack is one of the anomalies 6G-XSec detects.
const (
	NEA0 CipherAlg = iota // null ciphering
	NEA1                  // SNOW 3G based
	NEA2                  // AES-CTR based
	NEA3                  // ZUC based
)

// String returns the 3GPP name.
func (a CipherAlg) String() string {
	if a <= NEA3 {
		return [...]string{"NEA0", "NEA1", "NEA2", "NEA3"}[a]
	}
	return fmt.Sprintf("CipherAlg(%d)", uint8(a))
}

// Null reports whether the algorithm provides no confidentiality.
func (a CipherAlg) Null() bool { return a == NEA0 }

// IntegAlg is a 5G NR integrity algorithm identifier (TS 33.501 §5.11.1.2).
type IntegAlg uint8

// Integrity algorithms. NIA0 is the null integrity algorithm; TS 33.501
// forbids it outside emergency calls, so observing it is a strong anomaly.
const (
	NIA0 IntegAlg = iota // null integrity
	NIA1                 // SNOW 3G based
	NIA2                 // AES-CMAC based
	NIA3                 // ZUC based
)

// String returns the 3GPP name.
func (a IntegAlg) String() string {
	if a <= NIA3 {
		return [...]string{"NIA0", "NIA1", "NIA2", "NIA3"}[a]
	}
	return fmt.Sprintf("IntegAlg(%d)", uint8(a))
}

// Null reports whether the algorithm provides no integrity protection.
func (a IntegAlg) Null() bool { return a == NIA0 }

// EstablishmentCause is the RRC establishment cause carried in
// RRCSetupRequest (TS 38.331 §6.2.2).
type EstablishmentCause uint8

// Establishment causes.
const (
	CauseEmergency EstablishmentCause = iota
	CauseHighPriorityAccess
	CauseMTAccess
	CauseMOSignalling
	CauseMOData
	CauseMOVoiceCall
	CauseMOVideoCall
	CauseMOSMS
	CauseMPSPriorityAccess
	CauseMCSPriorityAccess
	causeCount
)

var causeNames = [...]string{
	"emergency", "highPriorityAccess", "mt-Access", "mo-Signalling",
	"mo-Data", "mo-VoiceCall", "mo-VideoCall", "mo-SMS",
	"mps-PriorityAccess", "mcs-PriorityAccess",
}

// String returns the TS 38.331 cause name.
func (c EstablishmentCause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// Valid reports whether the cause is a defined value.
func (c EstablishmentCause) Valid() bool { return c < causeCount }

// Direction tells whether a control message travels from UE to network or
// the reverse. MobiFlow telemetry records it for every message.
type Direction uint8

// Message directions.
const (
	Uplink   Direction = iota // UE → network
	Downlink                  // network → UE
)

// String returns "UL" or "DL".
func (d Direction) String() string {
	if d == Uplink {
		return "UL"
	}
	return "DL"
}
