package rrc

import (
	"fmt"
)

// State is the RRC connection state of a UE context, as tracked by the CU
// and reported in MobiFlow telemetry.
type State uint8

// RRC states (TS 38.331 §4.2.1, plus intermediate procedure states the CU
// tracks internally).
const (
	StateIdle State = iota
	StateSetupRequested
	StateConnected         // setup complete received
	StateSecurityActivated // AS security mode complete
	StateReconfigured      // bearers configured
	StateReleased
	stateCount
)

var stateNames = [...]string{
	"IDLE", "SETUP_REQUESTED", "CONNECTED", "SECURITY_ACTIVATED",
	"RECONFIGURED", "RELEASED",
}

// String returns the state name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// TransitionError reports an RRC message that is illegal in the current
// state. The CU logs these and MobiWatch treats the affected sequence as
// protocol-anomalous context.
type TransitionError struct {
	State State
	Msg   MsgType
}

// Error implements error.
func (e *TransitionError) Error() string {
	return fmt.Sprintf("rrc: message %s illegal in state %s", e.Msg, e.State)
}

// Machine tracks the RRC state of one UE context. The zero value is a UE
// in IDLE. Machine is not safe for concurrent use; the CU serializes
// per-UE events.
type Machine struct {
	state State
}

// State returns the current state.
func (m *Machine) State() State { return m.state }

func (m *Machine) to(s State) { m.state = s }

// Observe applies a message to the state machine, validating that the
// message is legal in the current state. It returns a *TransitionError for
// out-of-order messages but still applies a best-effort transition, since
// the CU must keep tracking a noncompliant UE rather than lose visibility.
func (m *Machine) Observe(msg Message) error {
	t := msg.Type()
	before := m.state
	legal := m.legal(t)
	switch t {
	case TypeSetupRequest:
		m.to(StateSetupRequested)
	case TypeSetup:
		// DL response; remain in SETUP_REQUESTED.
	case TypeReject, TypeRelease:
		m.to(StateReleased)
	case TypeSetupComplete:
		m.to(StateConnected)
	case TypeSecurityModeComplete:
		m.to(StateSecurityActivated)
	case TypeSecurityModeFailure:
		// Stay connected without AS security.
	case TypeReconfigurationComplete:
		m.to(StateReconfigured)
	case TypeReestablishmentRequest:
		m.to(StateSetupRequested)
	}
	if !legal {
		return &TransitionError{State: before, Msg: t}
	}
	return nil
}

// legal reports whether message t is permitted in the current state, per
// the procedure ordering of TS 38.331. The check is evaluated before the
// transition is applied.
func (m *Machine) legal(t MsgType) bool {
	switch m.state {
	case StateIdle, StateReleased:
		return t == TypeSetupRequest || t == TypeReestablishmentRequest
	case StateSetupRequested:
		switch t {
		case TypeSetup, TypeSetupComplete, TypeReject, TypeReestablishment, TypeSetupRequest:
			// A repeated SetupRequest is a retransmission: tolerated,
			// though telemetry still records it.
			return true
		}
		return false
	case StateConnected:
		switch t {
		case TypeSecurityModeCommand, TypeSecurityModeComplete,
			TypeSecurityModeFailure, TypeULInformationTransfer,
			TypeDLInformationTransfer, TypeRelease:
			return true
		}
		return false
	case StateSecurityActivated:
		switch t {
		case TypeReconfiguration, TypeReconfigurationComplete,
			TypeULInformationTransfer, TypeDLInformationTransfer,
			TypeRelease:
			return true
		}
		return false
	case StateReconfigured:
		switch t {
		case TypeULInformationTransfer, TypeDLInformationTransfer,
			TypeRelease, TypeReconfiguration, TypeReconfigurationComplete:
			return true
		}
		return false
	}
	return false
}
