package llm

import (
	"fmt"
	"strconv"
	"strings"
)

// lineRecord is the expert's parsed view of one telemetry line — what a
// capable model extracts from the prompt text.
type lineRecord struct {
	seq        uint64
	dir        string // UL / DL
	layer      string // RRC / NAS
	msg        string
	rnti       string
	tmsi       string
	supiPlain  bool
	cipherNull bool
	integNull  bool
	secOn      bool
	rrcState   string
	nasState   string
	outOfOrder bool
	retx       bool
}

// parseLine parses one rendered telemetry line (mobiflow.Record.String
// format, in which the message is one token, quoted if it must be).
func parseLine(line string) (lineRecord, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "#") {
		return lineRecord{}, fmt.Errorf("llm: malformed telemetry line %q", line)
	}
	seq, err := strconv.ParseUint(fields[0][1:], 10, 64)
	if err != nil {
		return lineRecord{}, fmt.Errorf("llm: bad sequence in %q: %w", line, err)
	}
	msg := fields[3]
	if strings.HasPrefix(msg, `"`) { // a quoted token: see mobiflow's appendToken
		if msg, err = strconv.Unquote(msg); err != nil {
			return lineRecord{}, fmt.Errorf("llm: bad message in %q: %w", line, err)
		}
	}
	rec := lineRecord{seq: seq, dir: fields[1], layer: fields[2], msg: msg}
	for _, f := range fields[4:] {
		switch {
		case strings.HasPrefix(f, "rnti="):
			rec.rnti = f[len("rnti="):]
		case strings.HasPrefix(f, "tmsi="):
			rec.tmsi = f[len("tmsi="):]
		case strings.HasPrefix(f, "supi="):
			rec.supiPlain = strings.Contains(f, "(PLAINTEXT)")
		case strings.HasPrefix(f, "cipher="):
			rec.cipherNull = f == "cipher=NEA0"
		case strings.HasPrefix(f, "integ="):
			rec.integNull = f == "integ=NIA0"
		case strings.HasPrefix(f, "sec="):
			rec.secOn = f == "sec=on"
		case strings.HasPrefix(f, "rrc="):
			rec.rrcState = f[len("rrc="):]
		case strings.HasPrefix(f, "nas="):
			rec.nasState = f[len("nas="):]
		case f == "OUT-OF-ORDER":
			rec.outOfOrder = true
		case f == "RETX":
			rec.retx = true
		}
	}
	return rec, nil
}

// Finding is one attack pattern the expert engine identified in a window.
type Finding struct {
	Class    AttackClass
	Evidence string
	// Subtle marks findings whose traces are near standard-compliant —
	// the uplink identity extraction the paper notes most models miss.
	Subtle bool
}

// analyzeLines runs the cellular-security rule base over a parsed window
// and returns the findings, most severe first. An empty result means the
// window is consistent with benign traffic.
func analyzeLines(recs []lineRecord) []Finding {
	var findings []Finding

	// Per-connection outcome: which RNTIs reached an accepted
	// registration within the window.
	setupRNTIs := make(map[string]bool)
	acceptedRNTI := make(map[string]bool)
	for _, r := range recs {
		switch r.msg {
		case "RRCSetupRequest":
			setupRNTIs[r.rnti] = true
		case "RegistrationAccept":
			acceptedRNTI[r.rnti] = true
		}
	}

	// --- Signaling storm (BTS DoS, Figure 2b): a burst of connection
	// attempts on distinct fresh RNTIs, none of which reaches an
	// accepted registration; or its aftermath — a bulk teardown of
	// contexts that never registered.
	incomplete := 0
	for rnti := range setupRNTIs {
		if !acceptedRNTI[rnti] {
			incomplete++
		}
	}
	releasedUnregistered := make(map[string]bool)
	for _, r := range recs {
		if r.msg == "RRCRelease" && !acceptedRNTI[r.rnti] && r.nasState != "REGISTERED" {
			releasedUnregistered[r.rnti] = true
		}
	}
	switch {
	case incomplete >= 3:
		findings = append(findings, Finding{
			Class: ClassBTSDoS,
			Evidence: fmt.Sprintf("%d connection attempts on distinct RNTIs (%s...) with repeated truncated registrations and no completion — a rapid succession of fabricated sessions exhausting RAN contexts",
				incomplete, firstKey(setupRNTIs)),
		})
	case len(releasedUnregistered) >= 3:
		findings = append(findings, Finding{
			Class: ClassBTSDoS,
			Evidence: fmt.Sprintf("bulk teardown of %d contexts (%s...) that never completed registration — the residue of a signaling-storm flood being purged",
				len(releasedUnregistered), firstKey(releasedUnregistered)),
		})
	}

	// --- Blind DoS (TMSI replay): the same TMSI presented across
	// multiple distinct connections that never authenticate.
	tmsiConns := make(map[string]map[string]bool)
	for _, r := range recs {
		if r.tmsi == "" || r.rnti == "" {
			continue
		}
		if tmsiConns[r.tmsi] == nil {
			tmsiConns[r.tmsi] = make(map[string]bool)
		}
		tmsiConns[r.tmsi][r.rnti] = true
	}
	for tmsi, conns := range tmsiConns {
		failed := 0
		for rnti := range conns {
			if !acceptedRNTI[rnti] {
				failed++
			}
		}
		if len(conns) >= 2 && failed >= 2 {
			findings = append(findings, Finding{
				Class: ClassBlindDoS,
				Evidence: fmt.Sprintf("temporary identity %s replayed across %d different connections of which %d never complete authentication — consistent with spoofed setup requests disrupting the victim's sessions",
					tmsi, len(conns), failed),
			})
			break
		}
	}

	// --- Identity extraction: a plaintext permanent identity disclosed
	// by an IdentityResponse the network context does not justify.
	idRequested := false
	var prevMsg string
	for _, r := range recs {
		if r.msg == "IdentityRequest" {
			idRequested = true
		}
		if r.msg == "IdentityResponse" && r.supiPlain && !idRequested {
			if prevMsg == "AuthenticationRequest" {
				findings = append(findings, Finding{
					Class:    ClassUplinkIDExtraction,
					Subtle:   true,
					Evidence: "an authentication request is answered by a plaintext identity response instead of the expected authentication response; apart from this single substitution the trace is standard-compliant — consistent with an adaptive uplink overshadowing attack harvesting the subscriber identity",
				})
			} else {
				findings = append(findings, Finding{
					Class:    ClassDownlinkIDExtraction,
					Evidence: "a plaintext identity response appears although the network never issued an identity request — consistent with an attacker-injected downlink identity request tricking the device into disclosing its permanent identity",
				})
			}
		}
		if !r.retx {
			prevMsg = r.msg
		}
	}

	// --- Null cipher & integrity: security reported active while both
	// selected algorithms are null.
	for _, r := range recs {
		if r.secOn && r.cipherNull && r.integNull {
			findings = append(findings, Finding{
				Class:    ClassNullCipher,
				Evidence: "the session activated NAS security with NEA0/NIA0 — null ciphering and null integrity — leaving all traffic unprotected; TS 33.501 forbids this outside emergency services, so a bidding-down attack is likely",
			})
			break
		}
	}

	return dedupeFindings(findings)
}

func dedupeFindings(in []Finding) []Finding {
	seen := make(map[AttackClass]bool)
	var out []Finding
	for _, f := range in {
		if !seen[f.Class] {
			seen[f.Class] = true
			out = append(out, f)
		}
	}
	return out
}

func firstKey(m map[string]bool) string {
	best := ""
	for k := range m {
		if best == "" || k < best {
			best = k
		}
	}
	return best
}

// AnalyzePrompt parses the DATA section of a rendered prompt and runs the
// rule base — the "perfect analyst" upper bound the personalities filter.
func AnalyzePrompt(prompt string) ([]Finding, error) {
	lines, err := ExtractData(prompt)
	if err != nil {
		return nil, err
	}
	recs := make([]lineRecord, 0, len(lines))
	for _, line := range lines {
		rec, err := parseLine(line)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return analyzeLines(recs), nil
}
