package nas

import "fmt"

// State is the 5GMM registration state of a UE as tracked by the AMF and
// mirrored into MobiFlow telemetry.
type State uint8

// 5GMM states (TS 24.501 §5.1.3 subset, with the intermediate procedure
// states the AMF tracks).
const (
	StateDeregistered  State = iota
	StateRegInitiated        // Registration Request received
	StateAuthInitiated       // Authentication Request sent
	StateAuthenticated       // RES* verified
	StateSecured             // NAS security mode complete
	StateRegistered
	stateCount
)

var stateNames = [...]string{
	"DEREGISTERED", "REG_INITIATED", "AUTH_INITIATED", "AUTHENTICATED",
	"SECURED", "REGISTERED",
}

// String returns the state name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// TransitionError reports a NAS message that is illegal in the current
// 5GMM state.
type TransitionError struct {
	State State
	Msg   MsgType
}

// Error implements error.
func (e *TransitionError) Error() string {
	return fmt.Sprintf("nas: message %s illegal in state %s", e.Msg, e.State)
}

// Machine tracks the 5GMM state of one UE. The zero value is
// DEREGISTERED. Not safe for concurrent use.
type Machine struct {
	state State
	// identityRequested is set while a network IdentityRequest is
	// outstanding; an IdentityResponse with no outstanding request is
	// out of order — the signature of injected identity procedures.
	identityRequested bool
}

// State returns the current 5GMM state.
func (m *Machine) State() State { return m.state }

// Observe applies a message, returning a *TransitionError if it is out of
// order for the current state. As with the RRC machine, the transition is
// still applied best-effort so tracking continues for noncompliant peers.
func (m *Machine) Observe(msg Message) error {
	t := msg.Type()
	before := m.state
	legal := m.legal(t)
	switch t {
	case TypeRegistrationRequest:
		m.state = StateRegInitiated
	case TypeAuthenticationRequest:
		m.state = StateAuthInitiated
	case TypeAuthenticationResponse:
		m.state = StateAuthenticated
	case TypeAuthenticationFailure:
		m.state = StateRegInitiated
	case TypeSecurityModeComplete:
		m.state = StateSecured
	case TypeSecurityModeReject:
		m.state = StateAuthenticated
	case TypeRegistrationAccept:
		m.state = StateRegistered
	case TypeRegistrationReject, TypeDeregistrationAccept:
		m.state = StateDeregistered
	case TypeServiceRequest:
		// A service request presents a valid temporary identity: the
		// subscriber is registered (idle); the accept resumes service.
		m.state = StateRegistered
	case TypeDeregistrationRequest:
		// remain; accept completes it
	}
	switch t {
	case TypeIdentityRequest:
		m.identityRequested = true
	case TypeIdentityResponse:
		m.identityRequested = false
	}
	if !legal {
		return &TransitionError{State: before, Msg: t}
	}
	return nil
}

// legal encodes the expected 5GMM procedure ordering: registration, then
// authentication, then security mode, then accept. Identity procedures
// are legal during registration *before* security only when the network
// has no prior identity — exactly the ambiguity identity-extraction
// attacks exploit, so the machine permits IdentityRequest/Response in
// REG_INITIATED but nothing earlier.
func (m *Machine) legal(t MsgType) bool {
	switch m.state {
	case StateDeregistered:
		return t == TypeRegistrationRequest || t == TypeServiceRequest
	case StateRegInitiated:
		switch t {
		case TypeAuthenticationRequest, TypeIdentityRequest,
			TypeRegistrationReject,
			TypeRegistrationRequest: // retransmission
			return true
		case TypeIdentityResponse:
			return m.identityRequested
		}
		return false
	case StateAuthInitiated:
		switch t {
		case TypeAuthenticationResponse, TypeAuthenticationFailure,
			TypeAuthenticationRequest: // re-challenge
			return true
		}
		return false
	case StateAuthenticated:
		switch t {
		case TypeSecurityModeCommand, TypeSecurityModeComplete,
			TypeSecurityModeReject, TypeRegistrationReject:
			return true
		}
		return false
	case StateSecured:
		switch t {
		case TypeRegistrationAccept, TypeRegistrationReject,
			TypeIdentityRequest:
			return true
		case TypeIdentityResponse:
			return m.identityRequested
		}
		return false
	case StateRegistered:
		switch t {
		case TypeRegistrationComplete, TypeServiceRequest,
			TypeServiceAccept, TypeDeregistrationRequest,
			TypeDeregistrationAccept, TypeIdentityRequest:
			return true
		case TypeIdentityResponse:
			return m.identityRequested
		}
		return false
	}
	return false
}
