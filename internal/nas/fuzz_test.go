package nas_test

import (
	"reflect"
	"testing"

	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/nas"
	"github.com/6g-xsec/xsec/internal/ngap"
)

// sessionPDUs returns the nas.Encode of every NAS message a dataset
// fleet's sessions exchange with the simulated AMF, uplink and downlink
// in order: each UE registers with its SUCI and its profile's
// capabilities, deregisters, registers again with its GUTI and resumes
// with a service request; then a GUTI the AMF does not know is asked for
// its identity and fails authentication.
func sessionPDUs(f *testing.F) [][]byte {
	s, err := dataset.NewScenario(dataset.BenignConfig{Fleet: 10, Seed: 21})
	if err != nil {
		f.Fatal(err)
	}
	var out [][]byte
	var ran uint64
	// send carries m to the AMF on the current RAN UE and returns the last
	// NAS message of its answer.
	send := func(m nas.Message) nas.Message {
		pdu := nas.Encode(m)
		out = append(out, pdu)
		resp, err := s.AMF.HandleNGAP(&ngap.Message{Type: ngap.TypeUplinkNASTransport, RANUEID: ran, NASPDU: pdu})
		if err != nil {
			f.Fatal(err)
		}
		var last nas.Message
		for _, r := range resp {
			if r.NASPDU == nil {
				continue
			}
			out = append(out, r.NASPDU)
			if last, err = nas.Decode(r.NASPDU); err != nil {
				f.Fatal(err)
			}
		}
		return last
	}
	for i, u := range s.Fleet {
		suci, err := cell.SUCIFromSUPI(u.SUPI, 0)
		if err != nil {
			f.Fatal(err)
		}
		id := nas.MobileIdentity{Type: nas.IdentitySUCI, SUCI: suci}
		for _, regType := range []nas.RegistrationType{nas.RegInitial, nas.RegMobilityUpdate} {
			ran++
			auth := send(&nas.RegistrationRequest{RegType: regType, Identity: id, Capability: u.Profile.Capability}).(*nas.AuthenticationRequest)
			send(&nas.AuthenticationResponse{RES: nas.DeriveRES(u.K, auth.RAND)})
			guti := send(&nas.SecurityModeComplete{}).(*nas.RegistrationAccept).GUTI
			send(&nas.RegistrationComplete{})
			id = nas.MobileIdentity{Type: nas.IdentityGUTI, GUTI: guti}
			if regType == nas.RegInitial {
				send(&nas.DeregistrationRequest{})
			}
		}
		ran++
		send(&nas.ServiceRequest{TMSI: id.GUTI.TMSI})
		ran++
		id.GUTI.TMSI = cell.TMSI(0xA0000000 + i)
		send(&nas.RegistrationRequest{Identity: id, Capability: u.Profile.Capability})
		send(&nas.IdentityResponse{Identity: nas.MobileIdentity{Type: nas.IdentitySUCI, SUCI: suci}})
		send(&nas.AuthenticationFailure{Cause: nas.CauseIllegalUE})
	}
	return out
}

// FuzzNASDecode holds nas.Decode — what the gNB and the AMF run on
// every NAS PDU a UE sends — to three properties on arbitrary bytes: it
// never panics; a message it accepts re-encodes to bytes that decode to
// an equal message (an absent and an empty RES are the same message);
// and nothing it returns is longer than the input. The seeds are the NAS
// PDUs of a dataset fleet's sessions.
func FuzzNASDecode(f *testing.F) {
	for _, pdu := range sessionPDUs(f) {
		f.Add(pdu)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := nas.Decode(data)
		if err != nil {
			return
		}
		longest := 0
		leaves(reflect.ValueOf(m), func(v reflect.Value) { longest = max(longest, v.Len()) })
		if longest > len(data) {
			t.Fatalf("%d bytes decoded to a %d-long field: %+v", len(data), longest, m)
		}
		back, err := nas.Decode(nas.Encode(m))
		if err != nil || !reflect.DeepEqual(emptyToNil(back), emptyToNil(m)) {
			t.Fatalf("decode∘encode: %+v, %v; want %+v", back, err, m)
		}
	})
}

// emptyToNil sets every empty slice m holds to nil and returns m.
func emptyToNil(m nas.Message) nas.Message {
	leaves(reflect.ValueOf(m), func(v reflect.Value) {
		if v.Kind() == reflect.Slice && v.Len() == 0 {
			v.SetZero()
		}
	})
	return m
}

// leaves calls fn with every string and slice v holds.
func leaves(v reflect.Value, fn func(reflect.Value)) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			leaves(v.Elem(), fn)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			leaves(v.Field(i), fn)
		}
	case reflect.String, reflect.Slice:
		fn(v)
	}
}
