package llm

import (
	"testing"

	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/nas"
	"github.com/6g-xsec/xsec/internal/rrc"
)

// FuzzParseLine renders a record built from fuzzed fields — Msg and SUPI
// are UE-originated — and requires parseLine to recover every field the
// engine reads from the line, so no value can hide or forge another
// field. parseLine and ExtractData must also never panic on the raw
// input, which stands for an arbitrary line and an arbitrary prompt.
func FuzzParseLine(f *testing.F) {
	f.Add(uint64(42), "IdentityResponse", "imsi-001010000000001", uint16(0x4601), uint32(0xCAFEBABE), uint64(0x0103_0201_0100))
	f.Add(uint64(7), "RRCSetupRequest", "", uint16(1), uint32(0), uint64(0x0201_0302_0301))
	f.Add(uint64(1), "x RETX", "a\n#2 UL RRC RRCSetupRequest", uint16(0), uint32(1), uint64(0xff))
	f.Fuzz(func(t *testing.T, seq uint64, msg, supi string, rnti uint16, tmsi uint32, bits uint64) {
		parseLine(msg)
		ExtractData(dataHeader + "\n" + msg + "\n" + supi)

		field := func(i int) uint8 { return uint8(bits >> (8 * i)) }
		r := mobiflow.Record{
			Seq: seq, Msg: msg, SUPI: cell.SUPI(supi), RNTI: cell.RNTI(rnti), TMSI: cell.TMSI(tmsi),
			Dir: cell.Direction(field(0) & 1), Layer: mobiflow.Layer(field(0) >> 1 & 1),
			SecurityOn: field(0)&4 != 0, OutOfOrder: field(0)&8 != 0, Retransmission: field(0)&16 != 0,
			CipherAlg: cell.CipherAlg(field(1)), IntegAlg: cell.IntegAlg(field(2)),
			EstCause: cell.EstablishmentCause(field(3)), RRCState: rrc.State(field(4)), NASState: nas.State(field(5)),
		}
		line := r.String()
		got, err := parseLine(line)
		if err != nil {
			t.Fatalf("parseLine(%q): %v", line, err)
		}
		want := lineRecord{
			seq: r.Seq, dir: r.Dir.String(), layer: r.Layer.String(), msg: r.Msg, rnti: r.RNTI.String(),
			supiPlain: r.SUPI != "", cipherNull: r.CipherAlg == cell.NEA0, integNull: r.IntegAlg == cell.NIA0,
			secOn: r.SecurityOn, rrcState: r.RRCState.String(), nasState: r.NASState.String(),
			outOfOrder: r.OutOfOrder, retx: r.Retransmission,
		}
		if r.TMSI != cell.InvalidTMSI {
			want.tmsi = r.TMSI.String()
		}
		if got != want {
			t.Fatalf("parseLine(%q)\n  = %+v\n want %+v", line, got, want)
		}
	})
}
