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

// fmtPrompt is RenderPrompt as it was written without Grow or AppendTo.
func fmtPrompt(window mobiflow.Trace) string {
	lines := make([]string, 0, len(window))
	for _, r := range window {
		lines = append(lines, fmtRecord(r)+"\n")
	}
	return promptPreamble + "\n" + promptDataDescriptions + "\n\n" + dataHeader + "\n" +
		strings.Join(lines, "") + "\n" + promptQuestion
}

// TestRenderingIsByteIdentical holds the prompt bytes still while how they
// are produced changes: every record of the attack dataset and of a benign
// fleet, and records no generator emits (undefined enum values, the widest
// identifiers, a message longer than the line buffer), render as the fmt
// reference does, and the cache key and prompt digest of a fixed window are
// the values verdict caches and prov chains written before the change hold.
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
	const (
		wantKey    prov.Digest = 0x38ae3370d63bb5e4
		wantDigest prov.Digest = 0x9e85a02a131b12b7
	)
	if got := CacheKey("chatgpt-4o", prompt); got != wantKey {
		t.Errorf("CacheKey of the BTS-DoS window = %#x, pinned %#x", uint64(got), uint64(wantKey))
	}
	if got := prov.DigestText(prompt); got != wantDigest {
		t.Errorf("PromptDigest of the BTS-DoS window = %#x, pinned %#x", uint64(got), uint64(wantDigest))
	}
	if allocs := testing.AllocsPerRun(20, func() { _ = RenderPrompt(w) }); allocs > 1 {
		t.Errorf("RenderPrompt allocates %.0f times per call, want 1 (the prompt)", allocs)
	}
}
