// Package llm implements the expert-referencing layer of 6G-XSec (§3.3
// and §4.2 of the paper): prompt templates that render flagged telemetry
// windows into an analyst brief (Figure 5), a REST client that queries a
// model endpoint, response parsing into a structured Analysis
// (classification / explanation / attribution / remediation), and an HTTP
// expert service hosting five model personalities whose per-attack
// capabilities are calibrated to the paper's Table 3.
//
// The expert service is the repository's LLM substitute (DESIGN.md §1):
// it reads the same prompt text a web LLM would receive, reasons over the
// telemetry with a cellular-security rule base, and answers in natural
// language filtered through the queried model's capability profile. The
// client code path — template → REST → text → parse → cross-compare — is
// exactly what a production deployment pointing at a real endpoint runs.
package llm

import (
	"fmt"

	"github.com/6g-xsec/xsec/internal/prov"
)

// Verdict is the analyst's binary decision for a sequence.
type Verdict uint8

// Verdicts.
const (
	VerdictBenign Verdict = iota
	VerdictAnomalous
)

// String returns "BENIGN" or "ANOMALOUS".
func (v Verdict) String() string {
	if v == VerdictAnomalous {
		return "ANOMALOUS"
	}
	return "BENIGN"
}

// AttackClass enumerates the attack taxonomy the expert reasons over.
type AttackClass uint8

// Attack classes, matching the paper's five evaluated attacks.
const (
	ClassUnknown AttackClass = iota
	ClassBTSDoS
	ClassBlindDoS
	ClassUplinkIDExtraction
	ClassDownlinkIDExtraction
	ClassNullCipher
)

var classNames = [...]string{
	"Unknown",
	"Signaling Storm (BTS DoS)",
	"Blind DoS (TMSI replay)",
	"Uplink Identity Extraction",
	"Downlink Identity Extraction",
	"Null Cipher & Integrity Downgrade",
}

// String returns the class label used in responses.
func (c AttackClass) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("AttackClass(%d)", uint8(c))
}

// Hypothesis is one ranked attack explanation.
type Hypothesis struct {
	Class        AttackClass
	Likelihood   float64 // 0..1
	Implications string
}

// Serving sources: how an Analysis reached the caller. The provenance
// ledger records non-live sources on the verdict event so audit chains
// distinguish a fresh expert opinion from a cache replay or a degraded
// rule-based fallback.
const (
	// ServedLive: a fresh upstream REST round trip answered.
	ServedLive = "live"
	// ServedCache: the verdict cache short-circuited the round trip.
	ServedCache = "cache"
	// ServedCoalesced: a concurrent identical request was already in
	// flight; this caller shared its result.
	ServedCoalesced = "coalesced"
	// ServedDegraded: the budget governor shed the request and the
	// local rule base answered instead.
	ServedDegraded = "degraded"
)

// Analysis is the structured result of one expert referencing round —
// the four capabilities of §3.3: what (classification), why
// (explainability), who (attribution), how to mitigate (remediation).
type Analysis struct {
	Model       string
	Verdict     Verdict
	Confidence  float64
	Hypotheses  []Hypothesis // top attack hypotheses, most likely first
	Explanation string
	Attribution string
	Remediation []string
	// Raw is the full response text from the model.
	Raw string
	// PromptDigest fingerprints the exact prompt the verdict answers, so
	// the provenance ledger can bind verdict to evidence (set by
	// Client.AnalyzePromptText).
	PromptDigest prov.Digest
	// Served reports how the analysis reached the caller: ServedLive,
	// ServedCache, ServedCoalesced, or ServedDegraded ("" means live
	// from a bare Client).
	Served string
}

// clone returns a shallow copy over the same immutable slices: what the
// cache keeps (Served "cache", handed to every hit as is) and what a
// coalesced follower gets.
func (a *Analysis) clone() *Analysis {
	cp := *a
	return &cp
}

// TopClass returns the most likely attack class, or ClassUnknown for a
// benign verdict.
func (a *Analysis) TopClass() AttackClass {
	if a.Verdict == VerdictBenign || len(a.Hypotheses) == 0 {
		return ClassUnknown
	}
	return a.Hypotheses[0].Class
}
