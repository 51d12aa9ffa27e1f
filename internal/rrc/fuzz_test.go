package rrc_test

import (
	"reflect"
	"testing"

	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/nas"
	"github.com/6g-xsec/xsec/internal/rrc"
)

// sessionPDUs returns the rrc.Encode of every RRC message a dataset's
// default fleet exchanges with a gNB, in order: uplink as sent,
// downlink as drained. Each UE sets up with a random identity, registers
// with its SUCI, answers the network's procedures and deregisters; then
// it comes back with its GUTI's TMSI and asks to reestablish.
func sessionPDUs(f *testing.F) [][]byte {
	s, err := dataset.NewScenario(dataset.BenignConfig{Seed: 21})
	if err != nil {
		f.Fatal(err)
	}
	var out [][]byte
	for i, u := range s.Fleet {
		suci, err := cell.SUCIFromSUPI(u.SUPI, 0)
		if err != nil {
			f.Fatal(err)
		}
		link := s.GNB.Attach()
		send := func(m rrc.Message) {
			out = append(out, rrc.Encode(m))
			if err := link.SendRRC(m); err != nil {
				f.Fatal(err)
			}
		}
		sendNAS := func(m nas.Message) { send(&rrc.ULInformationTransfer{NASPDU: nas.Encode(m)}) }
		var tmsi cell.TMSI
		// drain answers every queued downlink until the queue is empty.
		drain := func() {
			for dl, ok := link.TryRecv(); ok; dl, ok = link.TryRecv() {
				out = append(out, rrc.Encode(dl))
				switch m := dl.(type) {
				case *rrc.SecurityModeCommand:
					send(&rrc.SecurityModeComplete{TransactionID: m.TransactionID})
				case *rrc.Reconfiguration:
					send(&rrc.ReconfigurationComplete{TransactionID: m.TransactionID})
					if acc, err := nas.Decode(m.NASPDU); err == nil {
						tmsi = acc.(*nas.RegistrationAccept).GUTI.TMSI
						sendNAS(&nas.RegistrationComplete{})
					}
				case *rrc.DLInformationTransfer:
					switch nm, _ := nas.Decode(m.NASPDU); nm := nm.(type) {
					case *nas.AuthenticationRequest:
						sendNAS(&nas.AuthenticationResponse{RES: nas.DeriveRES(u.K, nm.RAND)})
					case *nas.SecurityModeCommand:
						sendNAS(&nas.SecurityModeComplete{})
					}
				}
			}
		}
		send(&rrc.SetupRequest{Identity: rrc.UEIdentity{Kind: rrc.IdentityRandom, Random: uint64(i + 1)}, Cause: cell.CauseMOSignalling})
		drain()
		send(&rrc.SetupComplete{SelectedPLMN: cell.TestPLMN.String(), NASPDU: nas.Encode(&nas.RegistrationRequest{
			Identity:   nas.MobileIdentity{Type: nas.IdentitySUCI, SUCI: suci},
			Capability: u.Profile.Capability,
		})})
		drain()
		sendNAS(&nas.DeregistrationRequest{})
		drain()

		link = s.GNB.Attach()
		send(&rrc.SetupRequest{Identity: rrc.UEIdentity{Kind: rrc.IdentityTMSI, TMSI: tmsi}, Cause: cell.CauseMOData})
		send(&rrc.ReestablishmentRequest{RNTI: link.RNTI(), Cause: cell.CauseMOData})
		drain()
	}
	return out
}

// FuzzRRCDecode holds rrc.Decode, the inverse of the rrc.Encode whose
// bytes the gNB's retransmission check compares, to three properties on
// arbitrary bytes: it never panics; a message it accepts re-encodes to
// bytes that decode to an equal message (an absent and an empty NAS PDU
// are the same message); and nothing it returns is longer than the
// input (a NAS PDU is a copy of part of it). The seeds are a dataset
// fleet's sessions with a gNB and one message of every type.
func FuzzRRCDecode(f *testing.F) {
	for _, pdu := range sessionPDUs(f) {
		f.Add(pdu)
	}
	for _, m := range rrc.AllMessages() {
		f.Add(rrc.Encode(m))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := rrc.Decode(data)
		if err != nil {
			return
		}
		longest := 0
		leaves(reflect.ValueOf(m), func(v reflect.Value) { longest = max(longest, v.Len()) })
		if longest > len(data) {
			t.Fatalf("%d bytes decoded to a %d-long field: %+v", len(data), longest, m)
		}
		back, err := rrc.Decode(rrc.Encode(m))
		if err != nil || !reflect.DeepEqual(emptyToNil(back), emptyToNil(m)) {
			t.Fatalf("decode∘encode: %+v, %v; want %+v", back, err, m)
		}
	})
}

// emptyToNil sets every empty slice m holds to nil and returns m.
func emptyToNil(m rrc.Message) rrc.Message {
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
