package mobiflow_test

import (
	"testing"

	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/mobiflow"
)

// TestDecodeInternsKnownMessageNames decodes a held-out benign trace twice:
// as generated, and with every message name replaced by one of the same
// length that no RRC or NAS message has. The known names cost no
// allocation, so the first decode allocates exactly one time less per
// record. The unknown names round-trip, and keep costing their allocation
// however often they are seen: they are attacker-chosen bytes and the
// table does not learn them.
func TestDecodeInternsKnownMessageNames(t *testing.T) {
	known, err := dataset.GenerateBenign(dataset.BenignConfig{Sessions: 6, Fleet: 3, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	unknown := append(mobiflow.Trace(nil), known...)
	for i := range unknown {
		unknown[i].Msg = "x" + unknown[i].Msg[1:]
	}
	wireKnown, wireUnknown := mobiflow.EncodeTrace(known), mobiflow.EncodeTrace(unknown)

	buf := make(mobiflow.Trace, 0, len(known))
	decode := func(wire []byte, want mobiflow.Trace) float64 {
		return testing.AllocsPerRun(20, func() {
			got, err := mobiflow.DecodeTraceInto(buf[:0], wire)
			if err != nil || len(got) != len(want) {
				t.Fatalf("decoded %d records, err %v; want %d", len(got), err, len(want))
			}
			for i := range got {
				if got[i].Msg != want[i].Msg {
					t.Fatalf("record %d decodes to message %q, want %q", i, got[i].Msg, want[i].Msg)
				}
			}
		})
	}
	perKnown, perUnknown := decode(wireKnown, known), decode(wireUnknown, unknown)
	if diff := perUnknown - perKnown; diff != float64(len(known)) {
		t.Errorf("decoding %d records allocates %.0f times with known names and %.0f with unknown ones; want exactly one per record apart",
			len(known), perKnown, perUnknown)
	}
}
