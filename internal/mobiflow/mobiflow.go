// Package mobiflow implements the MOBIFLOW security-telemetry stream
// (§3.1 of the 6G-XSec paper, following Wen et al., "A fine-grained
// telemetry stream for security services in 5G open radio access
// networks").
//
// A telemetry entry x_i is collected at each control-message transmission:
//
//	x_i = [t_i, m_i, p_1 ... p_k]
//
// where m_i is the RRC or NAS message and the p_k are UE-specific
// parameters (Table 1): RNTI, S-TMSI, SUPI, ciphering and integrity
// algorithms, and the RRC establishment cause, plus the RRC/NAS protocol
// states the CU tracks. A time series τ = {x_1 ... x_M} from the RAN is a
// Trace.
//
// Records are produced by the gNB's RIC agent (internal/gnb), transported
// over E2 inside the E2SM-MOBIFLOW service model (internal/e2sm), stored
// in the SDL (internal/sdl), and consumed by the MobiWatch and LLM
// Analyzer xApps.
package mobiflow

import (
	"strconv"
	"time"

	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/nas"
	"github.com/6g-xsec/xsec/internal/rrc"
)

// Layer identifies which protocol produced the message field of a record.
type Layer uint8

// Protocol layers.
const (
	LayerRRC Layer = iota
	LayerNAS
)

// String returns "RRC" or "NAS".
func (l Layer) String() string {
	if l == LayerRRC {
		return "RRC"
	}
	return "NAS"
}

// Record is one MOBIFLOW telemetry entry. Fields correspond to Table 1 of
// the paper; zero values mean "not (yet) known" (e.g. TMSI before the AMF
// assigns one, SUPI unless it was revealed in plaintext).
type Record struct {
	// Seq is the gNB-assigned monotonic sequence number of the entry.
	Seq uint64
	// Timestamp is the collection time t_i.
	Timestamp time.Time
	// UEID is the CU-local UE context identifier the entry belongs to.
	UEID uint64

	// Msg is the RRC or NAS message name m_i.
	Msg string
	// Layer tells which protocol Msg belongs to.
	Layer Layer
	// Dir is the transmission direction.
	Dir cell.Direction

	// RNTI is the UE's C-RNTI at collection time.
	RNTI cell.RNTI
	// TMSI is the 5G-S-TMSI if one is associated with the UE context.
	TMSI cell.TMSI
	// SUPI is the permanent identifier if (and only if) it has been
	// observed in plaintext on the air interface.
	SUPI cell.SUPI

	// CipherAlg and IntegAlg are the security algorithms currently
	// selected for the UE (NEA0/NIA0 until security activation).
	CipherAlg cell.CipherAlg
	IntegAlg  cell.IntegAlg
	// SecurityOn reports whether NAS security has been activated, which
	// disambiguates "NEA0 because no security yet" from "NEA0 selected".
	SecurityOn bool

	// EstCause is the RRC establishment cause from the UE.
	EstCause cell.EstablishmentCause

	// RRCState and NASState are the CU-tracked protocol states after
	// this message.
	RRCState rrc.State
	NASState nas.State

	// OutOfOrder is set when the message violated the protocol state
	// machine (a TransitionError), the univariate anomaly signal of
	// Figure 2a.
	OutOfOrder bool
	// Retransmission marks duplicate messages caused by radio noise —
	// the main source of benign false positives in the paper (§4.1).
	Retransmission bool
}

// String renders a compact single-line form used in logs and LLM prompts.
func (r Record) String() string {
	var buf [192]byte // a line is ≈ 140 bytes, 185 with every identifier set
	return string(r.AppendTo(buf[:0]))
}

// AppendTo appends the String form to b. Every escalated case and every
// prompt renders its window line by line, so this formats by append
// rather than through fmt.
func (r *Record) AppendTo(b []byte) []byte {
	kv := func(key, value string) { b = append(append(b, key...), value...) }
	b = strconv.AppendUint(append(b, '#'), r.Seq, 10)
	kv(" ", r.Dir.String())
	kv(" ", r.Layer.String())
	kv(" ", r.Msg)
	b = appendHex(append(b, " rnti="...), uint64(r.RNTI), 4)
	if r.TMSI != cell.InvalidTMSI {
		b = appendHex(append(b, " tmsi="...), uint64(r.TMSI), 8)
	}
	if r.SUPI != "" {
		kv(" supi=", string(r.SUPI))
		b = append(b, "(PLAINTEXT)"...)
	}
	kv(" cipher=", r.CipherAlg.String())
	kv(" integ=", r.IntegAlg.String())
	if r.SecurityOn {
		b = append(b, " sec=on"...)
	} else {
		b = append(b, " sec=off"...)
	}
	kv(" cause=", r.EstCause.String())
	kv(" rrc=", r.RRCState.String())
	kv(" nas=", r.NASState.String())
	if r.OutOfOrder {
		b = append(b, " OUT-OF-ORDER"...)
	}
	if r.Retransmission {
		b = append(b, " RETX"...)
	}
	return b
}

// appendHex renders v as cell.RNTI and cell.TMSI print themselves: 0x and
// width upper-case digits.
func appendHex(b []byte, v uint64, width int) []byte {
	b = append(b, "0x"...)
	for shift := 4 * (width - 1); shift >= 0; shift -= 4 {
		b = append(b, "0123456789ABCDEF"[v>>shift&0xF])
	}
	return b
}
