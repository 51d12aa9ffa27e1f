package mobiflow

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/nas"
	"github.com/6g-xsec/xsec/internal/rrc"
)

func sampleRecord() Record {
	return Record{
		Seq:        7,
		Timestamp:  time.Unix(1700000000, 123).UTC(),
		UEID:       3,
		Msg:        "RRCSetupRequest",
		Layer:      LayerRRC,
		Dir:        cell.Uplink,
		RNTI:       0x4601,
		TMSI:       0xCAFEBABE,
		SUPI:       "imsi-001010000000001",
		CipherAlg:  cell.NEA2,
		IntegAlg:   cell.NIA2,
		SecurityOn: true,
		EstCause:   cell.CauseMOSignalling,
		RRCState:   rrc.StateConnected,
		NASState:   nas.StateRegistered,
		OutOfOrder: true,
	}
}

func TestRecordRoundTrip(t *testing.T) {
	in := sampleRecord()
	out, err := Decode(Encode(&in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip:\n got %#v\nwant %#v", out, in)
	}
}

func TestZeroRecordRoundTrip(t *testing.T) {
	in := Record{Timestamp: time.Unix(0, 0).UTC()}
	out, err := Decode(Encode(&in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("zero record round trip:\n got %#v\nwant %#v", out, in)
	}
}

func TestTraceEncodeDecode(t *testing.T) {
	in := Trace{sampleRecord(), sampleRecord()}
	in[1].Seq = 8
	in[1].Msg = "RegistrationRequest"
	in[1].Layer = LayerNAS
	out, err := DecodeTraceInto(nil, EncodeTrace(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("trace round trip mismatch")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	in := Trace{sampleRecord()}
	in[0].Timestamp = time.Unix(1700000000, 123).UTC()
	var buf bytes.Buffer
	if err := in.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("CSV round trip:\n got %#v\nwant %#v", out[0], in[0])
	}
}

func TestCSVEmpty(t *testing.T) {
	tr, err := ReadCSV(strings.NewReader(""))
	if err != nil || tr != nil {
		t.Errorf("empty CSV: tr=%v err=%v", tr, err)
	}
}

func TestCSVMalformed(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("a,b,c\n1,2,3\n")); err == nil {
		t.Error("malformed CSV accepted")
	}
}

func TestRecordString(t *testing.T) {
	s := sampleRecord().String()
	for _, want := range []string{"RRCSetupRequest", "0x4601", "0xCAFEBABE", "PLAINTEXT", "NEA2", "OUT-OF-ORDER"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestTraceHelpers(t *testing.T) {
	base := time.Unix(1000, 0).UTC()
	tr := Trace{
		{Seq: 3, UEID: 1, Msg: "c", Timestamp: base.Add(2 * time.Second)},
		{Seq: 1, UEID: 2, Msg: "a", Timestamp: base},
		{Seq: 2, UEID: 1, Msg: "b", Timestamp: base.Add(time.Second)},
	}
	tr.SortBySeq()
	if got := tr.Messages(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("Messages() = %v", got)
	}
	if got := tr.UEs(); !reflect.DeepEqual(got, []uint64{1, 2}) {
		t.Errorf("UEs() = %v", got)
	}
	if got := tr.FilterUE(1); len(got) != 2 {
		t.Errorf("FilterUE(1) len = %d", len(got))
	}
}

func fakeClock() func() time.Time {
	t := time.Unix(1700000000, 0).UTC()
	return func() time.Time {
		t = t.Add(10 * time.Millisecond)
		return t
	}
}

func TestExtractorBenignSession(t *testing.T) {
	x := NewExtractor(fakeClock())
	const ue = 1
	suci := cell.SUCI{PLMN: cell.TestPLMN, Scheme: 0, MSIN: "0000000001"}

	var tr Trace
	add := func(r Record) { tr = append(tr, r) }

	add(x.OnRRC(ue, 0x4601, &rrc.SetupRequest{Identity: rrc.UEIdentity{Kind: rrc.IdentityRandom, Random: 1}, Cause: cell.CauseMOSignalling}, false))
	add(x.OnRRC(ue, 0x4601, &rrc.Setup{}, false))
	add(x.OnRRC(ue, 0x4601, &rrc.SetupComplete{}, false))
	add(x.OnNAS(ue, &nas.RegistrationRequest{Identity: nas.MobileIdentity{Type: nas.IdentitySUCI, SUCI: suci}}, false))
	add(x.OnNAS(ue, &nas.AuthenticationRequest{}, false))
	add(x.OnNAS(ue, &nas.AuthenticationResponse{}, false))
	add(x.OnNAS(ue, &nas.SecurityModeCommand{CipherAlg: cell.NEA2, IntegAlg: cell.NIA2}, false))
	add(x.OnNAS(ue, &nas.SecurityModeComplete{}, false))
	add(x.OnNAS(ue, &nas.RegistrationAccept{GUTI: cell.GUTI{PLMN: cell.TestPLMN, TMSI: 0xAB}}, false))

	for i, r := range tr {
		if r.OutOfOrder {
			t.Errorf("record %d (%s) flagged out-of-order", i, r.Msg)
		}
		if r.Seq != uint64(i+1) {
			t.Errorf("record %d Seq = %d", i, r.Seq)
		}
	}
	last := tr[len(tr)-1]
	if last.TMSI != 0xAB {
		t.Errorf("final TMSI = %s", last.TMSI)
	}
	if !last.SecurityOn || last.CipherAlg != cell.NEA2 || last.IntegAlg != cell.NIA2 {
		t.Errorf("security state = on=%v %s/%s", last.SecurityOn, last.CipherAlg, last.IntegAlg)
	}
	if last.NASState != nas.StateRegistered {
		t.Errorf("NAS state = %v", last.NASState)
	}
	if last.EstCause != cell.CauseMOSignalling {
		t.Errorf("cause = %v", last.EstCause)
	}
	// Null-scheme SUCI in a registration before security reveals the SUPI.
	if last.SUPI != "imsi-001010000000001" {
		t.Errorf("SUPI = %q", last.SUPI)
	}
	// Timestamps strictly increase.
	for i := 1; i < len(tr); i++ {
		if !tr[i].Timestamp.After(tr[i-1].Timestamp) {
			t.Errorf("timestamp %d not increasing", i)
		}
	}
}

func TestExtractorFlagsOutOfOrder(t *testing.T) {
	x := NewExtractor(fakeClock())
	// Identity Response with no preceding registration → NAS out-of-order.
	r := x.OnNAS(5, &nas.IdentityResponse{Identity: nas.MobileIdentity{Type: nas.IdentitySUCI, SUCI: cell.SUCI{PLMN: cell.TestPLMN, MSIN: "42"}}}, false)
	if !r.OutOfOrder {
		t.Error("IdentityResponse in DEREGISTERED not flagged")
	}
	if r.SUPI == "" {
		t.Error("plaintext identity not captured")
	}
}

func TestExtractorConcealedSUCINotRevealed(t *testing.T) {
	x := NewExtractor(fakeClock())
	suci := cell.SUCI{PLMN: cell.TestPLMN, Scheme: 1, MSIN: "**********"}
	r := x.OnNAS(1, &nas.RegistrationRequest{Identity: nas.MobileIdentity{Type: nas.IdentitySUCI, SUCI: suci}}, false)
	if r.SUPI != "" {
		t.Errorf("concealed SUCI revealed SUPI %q", r.SUPI)
	}
}

func TestExtractorTMSIFromRRCSetup(t *testing.T) {
	x := NewExtractor(fakeClock())
	r := x.OnRRC(1, 0x11, &rrc.SetupRequest{Identity: rrc.UEIdentity{Kind: rrc.IdentityTMSI, TMSI: 0xFEED}}, false)
	if r.TMSI != 0xFEED {
		t.Errorf("TMSI = %s", r.TMSI)
	}
}

func TestExtractorRelease(t *testing.T) {
	x := NewExtractor(fakeClock())
	x.OnRRC(1, 0x11, &rrc.SetupRequest{}, false)
	if len(x.ues) != 1 {
		t.Fatalf("%d UE contexts", len(x.ues))
	}
	x.ReleaseUE(1)
	if len(x.ues) != 0 {
		t.Fatalf("%d UE contexts after release", len(x.ues))
	}
	// Fresh context: old state must be gone.
	r := x.OnRRC(1, 0x12, &rrc.SetupRequest{}, false)
	if r.OutOfOrder {
		t.Error("fresh context inherited stale state")
	}
	if r.Seq != 2 {
		t.Errorf("Seq = %d, want global sequence to continue", r.Seq)
	}
}

func TestExtractorRetransmissionMarked(t *testing.T) {
	x := NewExtractor(fakeClock())
	x.OnRRC(1, 0x11, &rrc.SetupRequest{}, false)
	r := x.OnRRC(1, 0x11, &rrc.SetupRequest{}, true)
	if !r.Retransmission {
		t.Error("retransmission not marked")
	}
	if r.OutOfOrder {
		t.Error("retransmitted SetupRequest flagged out-of-order")
	}
}

// Property: records with arbitrary field values survive the block round trip.
func TestQuickRecordRoundTrip(t *testing.T) {
	f := func(seq, ue uint64, msg string, rnti uint16, tmsi uint32, dir, layer, cipher, integ, cause, rrcS, nasS uint8, secOn, ooo, retx bool, ns int64) bool {
		in := Record{
			Seq: seq, Timestamp: time.Unix(0, ns).UTC(), UEID: ue, Msg: msg,
			Layer: Layer(layer % 2), Dir: cell.Direction(dir % 2),
			RNTI: cell.RNTI(rnti), TMSI: cell.TMSI(tmsi),
			CipherAlg: cell.CipherAlg(cipher % 4), IntegAlg: cell.IntegAlg(integ % 4),
			SecurityOn: secOn, EstCause: cell.EstablishmentCause(cause % 10),
			RRCState: rrc.State(rrcS % 6), NASState: nas.State(nasS % 6),
			OutOfOrder: ooo, Retransmission: retx,
		}
		out, err := Decode(Encode(&in))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExtractorOnRRC(b *testing.B) {
	x := NewExtractor(time.Now)
	msg := &rrc.SetupRequest{Identity: rrc.UEIdentity{Kind: rrc.IdentityTMSI, TMSI: 1}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.OnRRC(uint64(i%100), cell.RNTI(i), msg, false)
	}
}

func BenchmarkRecordEncode(b *testing.B) {
	r := sampleRecord()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(&r)
	}
}
