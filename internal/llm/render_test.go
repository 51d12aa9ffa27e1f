package llm

import (
	"fmt"
	"strings"
	"testing"

	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/ue"
)

// fmtRecord is mobiflow.Record.String as it was written through fmt, kept
// as the reference the append rendering is compared against.
func fmtRecord(r mobiflow.Record) string {
	var b strings.Builder
	fmt.Fprintf(&b, "#%d %s %s %s rnti=%s", r.Seq, r.Dir, r.Layer, r.Msg, r.RNTI)
	if r.TMSI != cell.InvalidTMSI {
		fmt.Fprintf(&b, " tmsi=%s", r.TMSI)
	}
	if r.SUPI != "" {
		fmt.Fprintf(&b, " supi=%s(PLAINTEXT)", r.SUPI)
	}
	sec := "off"
	if r.SecurityOn {
		sec = "on"
	}
	fmt.Fprintf(&b, " cipher=%s integ=%s sec=%s cause=%s rrc=%s nas=%s",
		r.CipherAlg, r.IntegAlg, sec, r.EstCause, r.RRCState, r.NASState)
	if r.OutOfOrder {
		b.WriteString(" OUT-OF-ORDER")
	}
	if r.Retransmission {
		b.WriteString(" RETX")
	}
	return b.String()
}

// promptAround is the prompt with the given DATA lines.
func promptAround(lines []string) string {
	return promptPreamble + "\n" + promptDataDescriptions + "\n\n" + dataHeader + "\n" +
		strings.Join(lines, "") + "\n" + promptQuestion
}

// rawPrompt is the prompt as it was before it became canonical: every
// record as Record.String prints it, gNB sequence number and identifiers
// included.
func rawPrompt(window mobiflow.Trace) string {
	lines := make([]string, 0, len(window))
	for _, r := range window {
		lines = append(lines, fmtRecord(r)+"\n")
	}
	return promptAround(lines)
}

// fmtPrompt is RenderPrompt as it was written without Grow or AppendTo,
// applying the canonical substitution the plain way: three maps numbering
// each identifier by first appearance, the position for Seq.
func fmtPrompt(window mobiflow.Trace) string {
	rntis, tmsis, supis := map[cell.RNTI]int{}, map[cell.TMSI]int{}, map[cell.SUPI]int{}
	lines := make([]string, 0, len(window))
	for i, r := range window {
		r.Seq = uint64(i + 1)
		if rntis[r.RNTI] == 0 {
			rntis[r.RNTI] = len(rntis) + 1
		}
		r.RNTI = cell.RNTI(rntis[r.RNTI])
		if r.TMSI != cell.InvalidTMSI {
			if tmsis[r.TMSI] == 0 {
				tmsis[r.TMSI] = len(tmsis) + 1
			}
			r.TMSI = cell.TMSI(tmsis[r.TMSI])
		}
		if r.SUPI != "" {
			if supis[r.SUPI] == 0 {
				supis[r.SUPI] = len(supis) + 1
			}
			r.SUPI = cell.SUPI(fmt.Sprintf("subscriber-%d", supis[r.SUPI]))
		}
		lines = append(lines, fmtRecord(r)+"\n")
	}
	return promptAround(lines)
}

// TestRenderingIsByteIdentical holds the prompt bytes still while how they
// are produced changes: every record of the attack dataset and of a benign
// fleet, and records no generator emits (undefined enum values, the widest
// identifiers, a message longer than the line buffer), render as the fmt
// reference does, the prompt digest of a fixed window is the value prov
// chains hold, and its cache key is one Service's own.
func TestRenderingIsByteIdentical(t *testing.T) {
	l := mixed(t)
	benign, err := dataset.GenerateBenign(dataset.BenignConfig{Fleet: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	odd := mobiflow.Trace{
		{},
		{Seq: ^uint64(0), Dir: 9, Layer: 9, Msg: strings.Repeat("M", 300), RNTI: 0xFFFF, TMSI: 0xFFFFFFFF,
			SUPI: "imsi-001010000000001", CipherAlg: 7, IntegAlg: 200, SecurityOn: true, EstCause: 99,
			RRCState: 99, NASState: 99, OutOfOrder: true, Retransmission: true},
		{Seq: 10, RNTI: 0x0A, TMSI: 0x1, CipherAlg: cell.NEA3, IntegAlg: cell.NIA3},
	}
	for _, tr := range []mobiflow.Trace{l.Trace, benign, odd} {
		for _, r := range tr {
			if got, want := r.String(), fmtRecord(r); got != want {
				t.Fatalf("Record.String() = %q, fmt reference %q", got, want)
			}
		}
		if got, want := RenderPrompt(tr), fmtPrompt(tr); got != want {
			t.Fatalf("RenderPrompt differs from the fmt reference over %d records", len(tr))
		}
	}

	// The two sizes RenderPrompt grows its builder by are right: the fixed
	// text exactly, the per-record estimate for everything generated.
	if got := len(RenderPrompt(nil)); got != promptFixedLen {
		t.Errorf("an empty prompt is %d bytes, promptFixedLen = %d", got, promptFixedLen)
	}
	for _, r := range append(l.Trace[:len(l.Trace):len(l.Trace)], benign...) {
		if n := len(r.String()) + 1; n > promptRecordLen {
			t.Fatalf("%q renders to %d bytes; promptRecordLen = %d would regrow the prompt", r, n, promptRecordLen)
		}
	}

	w := attackWindow(l, ue.AttackBTSDoS)
	prompt := RenderPrompt(w)
	// Re-pinned when the prompt became canonical (0x9e85a02a131b12b7 before).
	const wantDigest prov.Digest = 0xbe55cf55dd7facc7
	a := NewService(NewClient("http://unused", "chatgpt-4o"), ServingOptions{})
	b := NewService(NewClient("http://unused", "chatgpt-4o"), ServingOptions{})
	if a.windowKey(w) != a.windowKey(w) {
		t.Error("one Service keys the BTS-DoS window differently on a second call")
	}
	if a.windowKey(w) == b.windowKey(w) {
		t.Error("two Services key the BTS-DoS window alike: the key is not keyed per Service")
	}
	if got := prov.DigestText(prompt); got != wantDigest {
		t.Errorf("PromptDigest of the BTS-DoS window = %#x, pinned %#x", uint64(got), uint64(wantDigest))
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = RenderPrompt(w) }); allocs > 1 {
		t.Errorf("RenderPrompt allocates %.0f times per call, want 1 (the prompt)", allocs)
	}
}
