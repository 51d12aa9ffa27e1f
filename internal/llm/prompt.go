package llm

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/6g-xsec/xsec/internal/cell"
	"github.com/6g-xsec/xsec/internal/mobiflow"
)

// The zero-shot prompt template of Figure 5. The data description block
// explains each telemetry attribute so a general-purpose model can reason
// over the sequence without examples.
const (
	promptPreamble = `You are an AI security analyst tasked with identifying potential attacks within a 5G network. You have access to a cellular traffic sequence with the following attributes:`

	promptDataDescriptions = `- seq: position of the entry in this sequence, counted from 1 (prefixed #)
- direction: UL (device to network) or DL (network to device)
- layer: RRC (radio control) or NAS (mobility/session management)
- message: the RRC or NAS protocol message name
- rnti: Radio Network Temporary Identifier of the device connection
- tmsi: Temporary Mobile Subscriber Identity, if assigned
- supi: permanent subscriber identity; (PLAINTEXT) marks unprotected exposure
- cipher/integ: selected ciphering and integrity algorithms (NEA0/NIA0 are null)
- sec: whether NAS security is activated
- cause: RRC establishment cause
- rrc/nas: tracked protocol states
- OUT-OF-ORDER marks messages violating the protocol state machine
- RETX marks radio retransmissions
The rnti, tmsi and supi values are aliases local to this prompt, numbered by first appearance: two entries show the same value exactly when they carried the same identifier, and the value itself means nothing.`

	promptQuestion = `Determine whether this sequence is anomalous or benign and explain why. Next, if the sequence constitutes attacks, provide the top 3 most possible attacks, and describe the implications.`

	dataHeader = "DATA:"

	// promptFixedLen is the prompt's text around the records, newlines
	// included; promptRecordLen is what a rendered record with its newline
	// stays under (≈ 142 bytes on average, 186 with every identifier set).
	promptFixedLen  = len(promptPreamble) + len(promptDataDescriptions) + len(dataHeader) + len(promptQuestion) + 5
	promptRecordLen = 192
)

// RenderPrompt builds the zero-shot analysis prompt for a telemetry
// window. Its DATA lines are the window's canonical form (aliases): the
// prompt is a function of the traffic pattern and names no UE.
func RenderPrompt(window mobiflow.Trace) string {
	var b strings.Builder
	b.Grow(promptFixedLen + len(window)*promptRecordLen)
	b.WriteString(promptPreamble)
	b.WriteString("\n")
	b.WriteString(promptDataDescriptions)
	b.WriteString("\n\n")
	b.WriteString(dataHeader)
	b.WriteString("\n")
	var buf aliasBuf
	ids := buf.aliases()
	var line [promptRecordLen]byte
	var rec mobiflow.Record
	for i := range window {
		ids, rec = ids.canonical(&window[i], i+1)
		b.Write(append(rec.AppendTo(line[:0]), '\n'))
	}
	b.WriteString("\n")
	b.WriteString(promptQuestion)
	return b.String()
}

// appendData appends the DATA lines of window's prompt to b: all of the
// prompt that depends on the window, so what the verdict cache keys on.
func appendData(b []byte, window mobiflow.Trace) []byte {
	var buf aliasBuf
	ids := buf.aliases()
	var rec mobiflow.Record
	for i := range window {
		ids, rec = ids.canonical(&window[i], i+1)
		b = append(rec.AppendTo(b), '\n')
	}
	return b
}

// windowIDs is how many distinct identifiers of one kind a prompt may
// show before aliases allocates: one per record of the longest window
// MobiWatch escalates (a window and its context, 16 records).
const windowIDs = 16

// aliases numbers the identifiers of one prompt by first appearance. The
// rule base, like any expert, reasons over which records share an
// identifier and never over its value, so the verdict is the same
// function of the window with or without the renaming; what changes is
// that two UEs running the same attack ask the same question, and that no
// subscriber's RNTI, TMSI or SUPI leaves the RIC in a request body.
// Legend maps the aliases back for whoever reads the answer.
type aliases struct {
	rnti []cell.RNTI
	tmsi []cell.TMSI
	supi []cell.SUPI
}

// aliasBuf is room on the caller's stack for a window's identifiers; a
// longer trace (the few-hundred-record renders of benches and tests)
// spills to the heap.
type aliasBuf struct {
	rnti [windowIDs]cell.RNTI
	tmsi [windowIDs]cell.TMSI
	supi [windowIDs]cell.SUPI
}

func (b *aliasBuf) aliases() aliases {
	return aliases{b.rnti[:0], b.tmsi[:0], b.supi[:0]}
}

// number returns v's 1-based position in seen, appending v when it is
// new. A window holds a handful of identifiers, so a scan beats a map.
func number[T comparable](seen []T, v T) ([]T, int) {
	for i, s := range seen {
		if s == v {
			return seen, i + 1
		}
	}
	return append(seen, v), len(seen) + 1
}

// supiAliases are the subscriber aliases a window-sized prompt can show,
// built once so that rendering one allocates nothing.
var supiAliases = func() (t [windowIDs]cell.SUPI) {
	for i := range t {
		t[i] = cell.SUPI("subscriber-" + strconv.Itoa(i+1))
	}
	return t
}()

// canonical returns r as the prompt shows it at position pos: Seq is the
// position and each identifier its alias; an absent TMSI or SUPI stays
// absent, and every other field is r's. The aliases come back by value
// with r's identifiers counted in: stored through a pointer, the slices
// would take the caller's aliasBuf to the heap.
func (a aliases) canonical(r *mobiflow.Record, pos int) (aliases, mobiflow.Record) {
	rec := *r
	rec.Seq = uint64(pos)
	var n int
	a.rnti, n = number(a.rnti, r.RNTI)
	rec.RNTI = cell.RNTI(n)
	if r.TMSI != cell.InvalidTMSI {
		a.tmsi, n = number(a.tmsi, r.TMSI)
		rec.TMSI = cell.TMSI(n)
	}
	if r.SUPI != "" {
		a.supi, n = number(a.supi, r.SUPI)
		if n <= len(supiAliases) {
			rec.SUPI = supiAliases[n-1]
		} else {
			rec.SUPI = cell.SUPI("subscriber-" + strconv.Itoa(n))
		}
	}
	return a, rec
}

// Alias is one entry of a prompt's legend: the prompt shows Field=Alias
// where the telemetry carried Value.
type Alias struct{ Field, Alias, Value string }

// String renders the entry as "rnti 0x0001 = 0x4601".
func (a Alias) String() string { return a.Field + " " + a.Alias + " = " + a.Value }

// Legend lists the aliases RenderPrompt gives window's identifiers, in
// the order the prompt introduces them. The prompt and every explanation
// of it speak in aliases; the case keeps the telemetry, and this is the
// way back.
func Legend(window mobiflow.Trace) []Alias {
	var ids aliases
	var out []Alias
	for i := range window {
		r := &window[i]
		was := ids
		var rec mobiflow.Record
		ids, rec = ids.canonical(r, i+1)
		if len(ids.rnti) > len(was.rnti) {
			out = append(out, Alias{"rnti", rec.RNTI.String(), r.RNTI.String()})
		}
		if len(ids.tmsi) > len(was.tmsi) {
			out = append(out, Alias{"tmsi", rec.TMSI.String(), r.TMSI.String()})
		}
		if len(ids.supi) > len(was.supi) {
			out = append(out, Alias{"supi", string(rec.SUPI), string(r.SUPI)})
		}
	}
	return out
}

// ExtractData recovers the telemetry lines from a rendered prompt — the
// expert service "reads" the prompt the way a web LLM would.
func ExtractData(prompt string) ([]string, error) {
	idx := strings.Index(prompt, dataHeader)
	if idx < 0 {
		return nil, fmt.Errorf("llm: prompt has no %q section", dataHeader)
	}
	rest := prompt[idx+len(dataHeader):]
	var lines []string
	for _, line := range strings.Split(rest, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "#") {
			break // question section reached
		}
		lines = append(lines, line)
	}
	if len(lines) == 0 {
		return nil, fmt.Errorf("llm: prompt DATA section is empty")
	}
	return lines, nil
}
