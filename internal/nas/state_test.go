package nas

import (
	"errors"
	"testing"
)

func TestBenignRegistrationProgression(t *testing.T) {
	var m Machine
	steps := []struct {
		msg  Message
		want State
	}{
		{&RegistrationRequest{}, StateRegInitiated},
		{&AuthenticationRequest{}, StateAuthInitiated},
		{&AuthenticationResponse{}, StateAuthenticated},
		{&SecurityModeCommand{}, StateAuthenticated},
		{&SecurityModeComplete{}, StateSecured},
		{&RegistrationAccept{}, StateRegistered},
		{&RegistrationComplete{}, StateRegistered},
	}
	for i, s := range steps {
		if err := m.Observe(s.msg); err != nil {
			t.Fatalf("step %d (%s): %v", i, s.msg.Type(), err)
		}
		if m.State() != s.want {
			t.Fatalf("step %d (%s): state = %v, want %v", i, s.msg.Type(), m.State(), s.want)
		}
	}
}

func TestIdentityResponseToAuthRequestFlagged(t *testing.T) {
	// The uplink ID-extraction attack answers an AuthenticationRequest
	// with an IdentityResponse. That is out of order in AUTH_INITIATED.
	var m Machine
	m.Observe(&RegistrationRequest{})
	m.Observe(&AuthenticationRequest{})
	err := m.Observe(&IdentityResponse{})
	var te *TransitionError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want TransitionError", err)
	}
	if te.State != StateAuthInitiated {
		t.Errorf("State = %v, want AUTH_INITIATED", te.State)
	}
}

func TestIdentityRequestBeforeRegistrationFlagged(t *testing.T) {
	// The downlink ID-extraction attack injects IdentityRequest while
	// the UE is DEREGISTERED from the AMF's perspective.
	var m Machine
	if err := m.Observe(&IdentityRequest{}); err == nil {
		t.Error("IdentityRequest in DEREGISTERED not flagged")
	}
}

func TestAuthFailureReturnsToRegInitiated(t *testing.T) {
	var m Machine
	m.Observe(&RegistrationRequest{})
	m.Observe(&AuthenticationRequest{})
	if err := m.Observe(&AuthenticationFailure{}); err != nil {
		t.Errorf("AuthenticationFailure flagged: %v", err)
	}
	if m.State() != StateRegInitiated {
		t.Errorf("state = %v, want REG_INITIATED", m.State())
	}
}

func TestDeregistrationFlow(t *testing.T) {
	var m Machine
	m.Observe(&RegistrationRequest{})
	m.Observe(&AuthenticationRequest{})
	m.Observe(&AuthenticationResponse{})
	m.Observe(&SecurityModeCommand{})
	m.Observe(&SecurityModeComplete{})
	m.Observe(&RegistrationAccept{})
	if err := m.Observe(&DeregistrationRequest{}); err != nil {
		t.Fatalf("deregistration flagged: %v", err)
	}
	if err := m.Observe(&DeregistrationAccept{}); err != nil {
		t.Fatalf("dereg accept flagged: %v", err)
	}
	if m.State() != StateDeregistered {
		t.Errorf("state = %v, want DEREGISTERED", m.State())
	}
}

func TestNASStateString(t *testing.T) {
	if StateSecured.String() != "SECURED" {
		t.Errorf("got %q", StateSecured.String())
	}
	if State(99).String() != "State(99)" {
		t.Errorf("got %q", State(99).String())
	}
}
