package llm

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/ue"
)

// escalated is the longest window MobiWatch hands the analyzer: a flagged
// window with its context.
const escalated = 16

// slidingWindows calls fn with every escalated-length window of tr.
func slidingWindows(tr mobiflow.Trace, fn func(w mobiflow.Trace)) {
	for i := 0; i+escalated <= len(tr); i++ {
		fn(tr[i : i+escalated])
	}
}

// TestVerdictInvariantUnderRenaming is the correctness argument of the
// canonical prompt: over every window of the five attacks and of a benign
// fleet, the rule base finds the same classes, as subtle, in the canonical
// rendering as in the rendering that printed the gNB's sequence numbers and
// the UEs' identifiers, and each personality answers with the same verdict
// and top class.
func TestVerdictInvariantUnderRenaming(t *testing.T) {
	l := mixed(t)
	benign, err := dataset.GenerateBenign(dataset.BenignConfig{Fleet: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	windows, anomalous := 0, 0
	check := func(w mobiflow.Trace) {
		windows++
		raw, err := AnalyzePrompt(rawPrompt(w))
		if err != nil {
			t.Fatal(err)
		}
		canon, err := AnalyzePrompt(RenderPrompt(w))
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) != len(canon) {
			t.Fatalf("window at #%d: %d findings raw, %d canonical", w[0].Seq, len(raw), len(canon))
		}
		if len(raw) > 0 {
			anomalous++
		}
		for i := range raw {
			if raw[i].Class != canon[i].Class || raw[i].Subtle != canon[i].Subtle {
				t.Fatalf("window at #%d finding %d: raw %v subtle=%v, canonical %v subtle=%v",
					w[0].Seq, i, raw[i].Class, raw[i].Subtle, canon[i].Class, canon[i].Subtle)
			}
		}
		for _, m := range DefaultModels {
			a, errA := ParseResponse(m.Respond(raw))
			b, errB := ParseResponse(m.Respond(canon))
			if errA != nil || errB != nil {
				t.Fatal(errA, errB)
			}
			if a.Verdict != b.Verdict || a.TopClass() != b.TopClass() {
				t.Fatalf("window at #%d, %s: raw %v/%v, canonical %v/%v",
					w[0].Seq, m.Name, a.Verdict, a.TopClass(), b.Verdict, b.TopClass())
			}
		}
	}
	slidingWindows(l.Trace, check)
	slidingWindows(benign, check)
	for kind := range expectedClass {
		check(attackWindow(l, kind))
	}
	if anomalous == 0 || anomalous == windows {
		t.Fatalf("%d of %d windows anomalous: the comparison needs both kinds", anomalous, windows)
	}
}

// rename returns w with every identifier value replaced through a
// bijection (so exactly the records that shared one still do), the
// sequence numbers shifted, and the fields no prompt carries changed.
func rename(w mobiflow.Trace, rng *rand.Rand) mobiflow.Trace {
	out := slices.Clone(w)
	rntiMul, rntiAdd := cell.RNTI(rng.Uint32())|1, cell.RNTI(rng.Uint32())
	tmsiMul := cell.TMSI(rng.Uint32()) | 1 // odd: a bijection that keeps InvalidTMSI (0) apart
	suffix := "-" + strings.Repeat("x", 1+rng.Intn(4))
	shift := uint64(rng.Int63())
	for i := range out {
		r := &out[i]
		r.Seq += shift
		r.UEID += shift
		r.Timestamp = r.Timestamp.Add(12345)
		r.RNTI = r.RNTI*rntiMul + rntiAdd
		r.TMSI *= tmsiMul
		if r.SUPI != "" {
			r.SUPI += cell.SUPI(suffix)
		}
	}
	return out
}

// TestKeyIsAFunctionOfThePattern: the cache key does not move when
// identifier values are permuted and sequence numbers shifted, and does
// move when anything else the prompt shows changes: any other field of any
// record, the order, or which records share an identifier.
func TestKeyIsAFunctionOfThePattern(t *testing.T) {
	l := mixed(t)
	svc := NewService(NewClient("http://unused", "chatgpt-4o"), ServingOptions{})
	rng := rand.New(rand.NewSource(11))

	mutations := map[string]func(r *mobiflow.Record){
		"Dir":            func(r *mobiflow.Record) { r.Dir ^= 1 },
		"Layer":          func(r *mobiflow.Record) { r.Layer ^= 1 },
		"Msg":            func(r *mobiflow.Record) { r.Msg += "X" },
		"CipherAlg":      func(r *mobiflow.Record) { r.CipherAlg++ },
		"IntegAlg":       func(r *mobiflow.Record) { r.IntegAlg++ },
		"SecurityOn":     func(r *mobiflow.Record) { r.SecurityOn = !r.SecurityOn },
		"EstCause":       func(r *mobiflow.Record) { r.EstCause++ },
		"RRCState":       func(r *mobiflow.Record) { r.RRCState++ },
		"NASState":       func(r *mobiflow.Record) { r.NASState++ },
		"OutOfOrder":     func(r *mobiflow.Record) { r.OutOfOrder = !r.OutOfOrder },
		"Retransmission": func(r *mobiflow.Record) { r.Retransmission = !r.Retransmission },
		"TMSI presence": func(r *mobiflow.Record) {
			if r.TMSI == cell.InvalidTMSI {
				r.TMSI = 0x7777
			} else {
				r.TMSI = cell.InvalidTMSI
			}
		},
		"SUPI presence": func(r *mobiflow.Record) {
			if r.SUPI == "" {
				r.SUPI = "imsi-001017777777777"
			} else {
				r.SUPI = ""
			}
		},
	}

	n := 0
	slidingWindows(l.Trace, func(w mobiflow.Trace) {
		if n++; n%7 != 0 { // every seventh window keeps the test under a second
			return
		}
		key := svc.windowKey(w)
		for round := 0; round < 3; round++ {
			if got := svc.windowKey(rename(w, rng)); got != key {
				t.Fatalf("window at #%d: renaming its identifiers moved the key", w[0].Seq)
			}
		}
		if RenderPrompt(w) != RenderPrompt(rename(w, rng)) {
			t.Fatalf("window at #%d: renaming its identifiers moved the prompt", w[0].Seq)
		}

		i := rng.Intn(len(w))
		for name, mutate := range mutations {
			m := slices.Clone(w)
			mutate(&m[i])
			if svc.windowKey(m) == key {
				t.Fatalf("window at #%d: changing %s of record %d kept the key", w[0].Seq, name, i)
			}
		}

		// Order: swapping two neighbours that differ in more than their
		// identifiers is another sequence.
		for j := 0; j+1 < len(w); j++ {
			if w[j].Msg != w[j+1].Msg {
				m := slices.Clone(w)
				m[j], m[j+1] = m[j+1], m[j]
				if svc.windowKey(m) == key {
					t.Fatalf("window at #%d: swapping records %d and %d kept the key", w[0].Seq, j, j+1)
				}
				break
			}
		}

		// Sharing: a record joins an earlier record's connection, or leaves
		// the one it shared, and the pattern is another.
		for j := 1; j < len(w); j++ {
			m := slices.Clone(w)
			if w[j].RNTI != w[0].RNTI {
				m[j].RNTI = w[0].RNTI
			} else {
				m[j].RNTI = 0xFFFE // in no generated trace
			}
			if svc.windowKey(m) == key {
				t.Fatalf("window at #%d: moving record %d to another connection kept the key", w[0].Seq, j)
			}
		}
	})
}

// TestLegendMapsAliasesBack: the legend lists each alias the prompt
// introduces, in prompt order, with the identifier the telemetry carried,
// and substituting it back into the canonical DATA lines gives the lines
// the case's own records print, sequence numbers aside.
func TestLegendMapsAliasesBack(t *testing.T) {
	w := mobiflow.Trace{
		{Seq: 900, Msg: "RRCSetupRequest", RNTI: 0x4601},
		{Seq: 901, Msg: "RRCSetupRequest", RNTI: 0x4602, TMSI: 0xCAFEBABE},
		{Seq: 907, Msg: "IdentityResponse", Layer: mobiflow.LayerNAS, RNTI: 0x4601, TMSI: 0xCAFEBABE, SUPI: "imsi-001010000000001"},
		{Seq: 911, Msg: "RRCRelease", RNTI: 0x4602, TMSI: 0x00000002},
	}
	got := Legend(w)
	want := []Alias{
		{"rnti", "0x0001", "0x4601"},
		{"rnti", "0x0002", "0x4602"},
		{"tmsi", "0x00000001", "0xCAFEBABE"},
		{"supi", "subscriber-1", "imsi-001010000000001"},
		{"tmsi", "0x00000002", "0x00000002"},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("Legend = %v, want %v", got, want)
	}
	if s := got[0].String(); s != "rnti 0x0001 = 0x4601" {
		t.Errorf("Alias.String() = %q", s)
	}
	lines, err := ExtractData(RenderPrompt(w))
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range lines {
		for _, a := range got {
			if a.Field == "supi" {
				line = strings.Replace(line, "supi="+a.Alias+"(", "supi="+a.Value+"(", 1)
			} else {
				line = strings.Replace(line, a.Field+"="+a.Alias+" ", a.Field+"="+a.Value+" ", 1)
			}
		}
		raw := w[i].String()
		if _, rest, _ := strings.Cut(raw, " "); !strings.HasSuffix(line, rest) {
			t.Errorf("record %d: canonical line with the legend applied is %q, the record prints %q", i, line, raw)
		}
	}
}

// TestNoIdentifierLeavesInARequest: what reaches the endpoint carries
// neither the gNB's sequence numbers nor any RNTI, TMSI or SUPI of the
// window, zero-shot or RAG-augmented, while the caller's window is left as
// it was.
func TestNoIdentifierLeavesInARequest(t *testing.T) {
	l := mixed(t)
	w := slices.Clone(attackWindow(l, ue.AttackDownlinkIDExtraction))
	for i := range w {
		w[i].Seq = 777000 + uint64(i)
		w[i].RNTI = 0xBEEF
		w[i].TMSI = 0xCAFEBABE
	}
	w[len(w)-1].SUPI = "imsi-001019999999999"
	before := slices.Clone(w)

	var bodies [][]byte
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		bodies = append(bodies, body)
		NewServer().Handler().ServeHTTP(rw, httptest.NewRequest(r.Method, r.URL.Path, bytes.NewReader(body)))
	}))
	defer ts.Close()

	for _, rag := range []bool{false, true} {
		c := NewClient(ts.URL, "chatgpt-4o")
		c.RAG = rag
		svc := NewService(c, ServingOptions{})
		a, err := svc.AnalyzeWindow(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		if a.Verdict != VerdictAnomalous {
			t.Errorf("rag=%v: verdict %v on an identity-extraction window", rag, a.Verdict)
		}
		for _, leak := range []string{"BEEF", "CAFEBABE", "001019999999999", "#777"} {
			if strings.Contains(a.Raw, leak) {
				t.Errorf("rag=%v: the answer quotes %q", rag, leak)
			}
		}
		svc.Close()
	}
	if len(bodies) != 2 {
		t.Fatalf("%d requests reached the endpoint, want 2", len(bodies))
	}
	for _, body := range bodies {
		for _, leak := range []string{"BEEF", "CAFEBABE", "001019999999999", "#777"} {
			if bytes.Contains(body, []byte(leak)) {
				t.Errorf("request body carries %q", leak)
			}
		}
		if !bytes.Contains(body, []byte("rnti=0x0001")) || !bytes.Contains(body, []byte("subscriber-1(PLAINTEXT)")) {
			t.Errorf("request body lacks the aliases: %s", body)
		}
	}
	if !slices.Equal(w, before) {
		t.Error("analysing a window rewrote the caller's records")
	}
}
