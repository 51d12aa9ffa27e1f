package llm

import (
	"fmt"
	"strings"

	"github.com/6g-xsec/xsec/internal/mobiflow"
)

// The zero-shot prompt template of Figure 5. The data description block
// explains each telemetry attribute so a general-purpose model can reason
// over the sequence without examples.
const (
	promptPreamble = `You are an AI security analyst tasked with identifying potential attacks within a 5G network. You have access to a cellular traffic sequence with the following attributes:`

	promptDataDescriptions = `- seq: monotonically increasing telemetry sequence number (prefixed #)
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
- RETX marks radio retransmissions`

	promptQuestion = `Determine whether this sequence is anomalous or benign and explain why. Next, if the sequence constitutes attacks, provide the top 3 most possible attacks, and describe the implications.`

	dataHeader = "DATA:"

	// promptFixedLen is the prompt's text around the records, newlines
	// included; promptRecordLen is what a rendered record with its newline
	// stays under (≈ 142 bytes on average, 186 with every identifier set).
	promptFixedLen  = len(promptPreamble) + len(promptDataDescriptions) + len(dataHeader) + len(promptQuestion) + 5
	promptRecordLen = 192
)

// RenderPrompt builds the zero-shot analysis prompt for a telemetry
// window.
func RenderPrompt(window mobiflow.Trace) string {
	var b strings.Builder
	b.Grow(promptFixedLen + len(window)*promptRecordLen)
	b.WriteString(promptPreamble)
	b.WriteString("\n")
	b.WriteString(promptDataDescriptions)
	b.WriteString("\n\n")
	b.WriteString(dataHeader)
	b.WriteString("\n")
	var line [promptRecordLen]byte
	for i := range window {
		b.Write(append(window[i].AppendTo(line[:0]), '\n'))
	}
	b.WriteString("\n")
	b.WriteString(promptQuestion)
	return b.String()
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
