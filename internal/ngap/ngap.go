// Package ngap holds the NG Application Protocol subset (3GPP TS 38.413)
// connecting the O-CU to the AMF in the simulated 5G core: initial UE
// message, uplink/downlink NAS transport, and UE context management. The
// gNB and the AMF run in one process and exchange these messages as
// values; nothing encodes them.
package ngap

import "fmt"

// MessageType discriminates NGAP procedure PDUs.
type MessageType uint8

// NGAP message types.
const (
	TypeInvalid MessageType = iota
	TypeInitialUEMessage
	TypeUplinkNASTransport
	TypeDownlinkNASTransport
	TypeInitialContextSetupRequest
	TypeUEContextReleaseCommand
)

var typeNames = [...]string{
	"Invalid",
	"InitialUEMessage",
	"UplinkNASTransport",
	"DownlinkNASTransport",
	"InitialContextSetupRequest",
	"UEContextReleaseCommand",
}

// String returns the TS 38.413 procedure name.
func (t MessageType) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("MessageType(%d)", uint8(t))
}

// Message is one NGAP PDU.
type Message struct {
	Type MessageType
	// RANUEID is the RAN UE NGAP ID: the gNB's UE context.
	RANUEID uint64
	// NASPDU carries the encoded NAS message for transport procedures.
	NASPDU []byte
	// Cause annotates release commands.
	Cause string
}
