// Package e2sm defines the E2 Service Models the framework uses on top of
// E2AP:
//
//   - E2SM-MOBIFLOW: the security-telemetry report service model (§3.1 of
//     the paper), an extension of the O-RAN E2SM-KPM reference model. It
//     defines the event trigger (periodic report) and the indication
//     header/message that carry batches of MOBIFLOW records as (key,
//     value) data. A report action carries no definition: every UE
//     context is reported.
//
//   - E2SM-XRC: a minimal RAN-control service model in the spirit of
//     O-RAN E2SM-RC, giving the closed-loop example the control actions
//     (§5 of the paper: "The O-RAN E2SM's RAN Control specification
//     defines a set of actions that could be incorporated into the AI
//     pipeline").
package e2sm

import (
	"fmt"
	"math"
	"time"

	"github.com/6g-xsec/xsec/internal/asn1lite"
	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/mobiflow"
)

// Identifiers registered for the two service models.
const (
	// MobiFlowRANFunctionID is the RAN function ID the gNB advertises
	// for the MOBIFLOW report service.
	MobiFlowRANFunctionID uint16 = 2
	// MobiFlowOID extends the E2SM-KPM OID arc.
	MobiFlowOID = "1.3.6.1.4.1.53148.1.2.2.100"
	// XRCRANFunctionID is the RAN function ID for the control service.
	XRCRANFunctionID uint16 = 3
	// XRCOID is the control service model OID.
	XRCOID = "1.3.6.1.4.1.53148.1.2.3.101"
)

// EventTrigger is the MOBIFLOW subscription event trigger: report
// accumulated telemetry every Period (the E2SM-KPM §3.1 "report ...
// per time interval" style).
type EventTrigger struct {
	Period time.Duration
}

// MarshalTLV implements asn1lite.Marshaler.
func (t *EventTrigger) MarshalTLV(e *asn1lite.Encoder) {
	e.PutUint(1, uint64(t.Period/time.Millisecond))
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (t *EventTrigger) UnmarshalTLV(d *asn1lite.Decoder) error {
	for d.Next() {
		if d.Tag() == 1 {
			v, err := d.Uint()
			if err != nil {
				return err
			}
			if v > math.MaxInt64/uint64(time.Millisecond) {
				return fmt.Errorf("e2sm: report period of %d ms overflows", v)
			}
			t.Period = time.Duration(v) * time.Millisecond
		}
	}
	return d.Err()
}

// IndicationHeader identifies a MOBIFLOW report batch.
type IndicationHeader struct {
	NodeID          string
	CollectionStart time.Time
	BatchSeq        uint64
	// UEID scopes the batch to one UE context when non-zero (real UE IDs
	// start at 1); the gNB agent ships each UE's records as batches of
	// their own. 0 means a mixed or unscoped batch.
	UEID uint64
}

// MarshalTLV implements asn1lite.Marshaler.
func (h *IndicationHeader) MarshalTLV(e *asn1lite.Encoder) {
	e.PutString(1, h.NodeID)
	// A zero start is outside UnixNano's range: it stays absent.
	if !h.CollectionStart.IsZero() {
		e.PutInt(2, h.CollectionStart.UnixNano())
	}
	e.PutUint(3, h.BatchSeq)
	if h.UEID != 0 {
		e.PutUint(4, h.UEID)
	}
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (h *IndicationHeader) UnmarshalTLV(d *asn1lite.Decoder) error {
	for d.Next() {
		var err error
		switch d.Tag() {
		case 1:
			h.NodeID, err = d.String()
		case 2:
			var ns int64
			ns, err = d.Int()
			if err == nil {
				h.CollectionStart = time.Unix(0, ns).UTC()
			}
		case 3:
			h.BatchSeq, err = d.Uint()
		case 4:
			h.UEID, err = d.Uint()
		}
		if err != nil {
			return err
		}
	}
	return d.Err()
}

// IndicationMessage carries one batch of telemetry records, as one block.
type IndicationMessage struct {
	Records mobiflow.Trace
}

// DecodeIndicationMessage parses a batch.
func DecodeIndicationMessage(data []byte) (*IndicationMessage, error) {
	tr, err := DecodeIndicationInto(nil, data)
	if err != nil {
		return nil, err
	}
	return &IndicationMessage{Records: tr}, nil
}

// DecodeIndicationInto parses a batch into buf, truncated, and returns the
// records: a caller that hands back the batches it is done with decodes
// without allocating the batch.
func DecodeIndicationInto(buf mobiflow.Trace, data []byte) (mobiflow.Trace, error) {
	tr, err := mobiflow.DecodeTraceInto(buf[:0], data)
	if err != nil {
		return tr, fmt.Errorf("e2sm: decoding indication message: %w", err)
	}
	return tr, nil
}

// FunctionDefinition describes a service model in the E2 Setup exchange.
type FunctionDefinition struct {
	Name        string
	Description string
}

// MarshalTLV implements asn1lite.Marshaler.
func (f *FunctionDefinition) MarshalTLV(e *asn1lite.Encoder) {
	e.PutString(1, f.Name)
	e.PutString(2, f.Description)
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (f *FunctionDefinition) UnmarshalTLV(d *asn1lite.Decoder) error {
	for d.Next() {
		var err error
		switch d.Tag() {
		case 1:
			f.Name, err = d.String()
		case 2:
			f.Description, err = d.String()
		}
		if err != nil {
			return err
		}
	}
	return d.Err()
}

// MobiFlowFunctionDefinition is the definition the gNB advertises.
func MobiFlowFunctionDefinition() *FunctionDefinition {
	return &FunctionDefinition{
		Name:        "E2SM-MOBIFLOW",
		Description: "fine-grained security telemetry report service (KPM extension)",
	}
}

// XRCFunctionDefinition is the control service definition.
func XRCFunctionDefinition() *FunctionDefinition {
	return &FunctionDefinition{
		Name:        "E2SM-XRC",
		Description: "RAN control actions for closed-loop security response",
	}
}

// ControlAction enumerates the closed-loop control primitives.
type ControlAction uint8

// Control actions.
const (
	// ControlReleaseUE releases a UE's RRC connection.
	ControlReleaseUE ControlAction = iota
	// ControlBlockTMSI denies setup requests presenting a TMSI.
	ControlBlockTMSI
	// ControlRequireStrongSecurity refuses null-algorithm security modes.
	ControlRequireStrongSecurity
	// ControlUnblockTMSI lifts a ControlBlockTMSI deny entry — the TTL
	// rollback of the mitigation engine.
	ControlUnblockTMSI
	// ControlRelaxSecurity reverts ControlRequireStrongSecurity, again
	// accepting whatever algorithms the core negotiates.
	ControlRelaxSecurity
)

// String returns the action name.
func (a ControlAction) String() string {
	switch a {
	case ControlReleaseUE:
		return "release-ue"
	case ControlBlockTMSI:
		return "block-tmsi"
	case ControlRequireStrongSecurity:
		return "require-strong-security"
	case ControlUnblockTMSI:
		return "unblock-tmsi"
	case ControlRelaxSecurity:
		return "relax-security"
	}
	return fmt.Sprintf("ControlAction(%d)", uint8(a))
}

// Inverse returns the rollback action undoing a, and whether a is
// reversible. Only reversible actions carry TTLs in the mitigation
// engine; releasing a UE cannot be undone by the RAN.
func (a ControlAction) Inverse() (ControlAction, bool) {
	switch a {
	case ControlBlockTMSI:
		return ControlUnblockTMSI, true
	case ControlRequireStrongSecurity:
		return ControlRelaxSecurity, true
	}
	return 0, false
}

// ControlRequest is the E2SM-XRC control payload.
type ControlRequest struct {
	Action ControlAction
	UEID   uint64
	TMSI   cell.TMSI
	Reason string
}

// MarshalTLV implements asn1lite.Marshaler.
func (c *ControlRequest) MarshalTLV(e *asn1lite.Encoder) {
	e.PutUint(1, uint64(c.Action))
	e.PutUint(2, c.UEID)
	e.PutUint(3, uint64(c.TMSI))
	e.PutString(4, c.Reason)
}

// UnmarshalTLV implements asn1lite.Unmarshaler.
func (c *ControlRequest) UnmarshalTLV(d *asn1lite.Decoder) error {
	for d.Next() {
		var err error
		switch d.Tag() {
		case 1:
			var v uint64
			v, err = d.Uint()
			c.Action = ControlAction(v)
		case 2:
			c.UEID, err = d.Uint()
		case 3:
			var v uint64
			v, err = d.Uint()
			c.TMSI = cell.TMSI(v)
		case 4:
			c.Reason, err = d.String()
		}
		if err != nil {
			return err
		}
	}
	return d.Err()
}
