package bench

import (
	"fmt"
	"strings"

	"github.com/6g-xsec/xsec/internal/feature"
	"github.com/6g-xsec/xsec/internal/llm"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/nn"
	"github.com/6g-xsec/xsec/internal/ue"
)

// Table1 renders the MOBIFLOW telemetry schema (the paper's Table 1).
func Table1() string {
	rows := [][]string{
		{"Message", "RRC Message", "Uplink / Downlink Radio Resource Control (RRC) protocol message"},
		{"Message", "NAS Message", "Uplink / Downlink Non-Access-Stratum (NAS) protocol message"},
		{"Identifier", "RNTI", "Radio Network Temporary Identifier"},
		{"Identifier", "S-TMSI", "Temporary Mobile Subscriber Identity"},
		{"Identifier", "SUPI", "Subscription Permanent Identifier (when exposed in plaintext)"},
		{"State", "Cipher_alg", "Ciphering algorithm employed by the UE (NEA0-NEA3)"},
		{"State", "Integrity_alg", "Integrity algorithm employed by the UE (NIA0-NIA3)"},
		{"State", "Establish_cause", "RRC establishment cause from the UE"},
		{"State", "RRC_state / NAS_state", "CU-tracked protocol states (extension)"},
		{"Flag", "Out_of_order / Retransmission", "protocol-violation and radio-noise markers (extension)"},
	}
	return "Table 1: MOBIFLOW security telemetry collected from the cellular data plane\n\n" +
		formatTable([]string{"Category", "Telemetry", "Description"}, rows)
}

// Figure2 regenerates the message sequences of the paper's Figure 2: the
// benign registration, the identity-extraction deviation (2a), and the
// RAN DoS RNTI stream (2b).
func Figure2(cfg Config) (string, error) {
	cfg.defaults()
	env, err := BuildEnv(cfg)
	if err != nil {
		return "", err
	}
	var b strings.Builder

	b.WriteString("Figure 2a — benign sequence vs. identity extraction attack\n\n")
	b.WriteString("Benign:\n")
	benignUE := firstBenignSession(env)
	for _, m := range benignUE.Messages() {
		fmt.Fprintf(&b, "  %s\n", m)
		if m == "AuthenticationResponse" {
			break
		}
	}
	b.WriteString("\nUplink identity extraction (AdaptOver-style):\n")
	attack := attackTrace(env, ue.AttackUplinkIDExtraction)
	for _, r := range attack {
		fmt.Fprintf(&b, "  %s", r.Msg)
		if r.Msg == "IdentityResponse" {
			fmt.Fprintf(&b, "   <-- plaintext identity instead of Auth. Resp (supi=%s)", r.SUPI)
			b.WriteString("\n")
			break
		}
		b.WriteString("\n")
	}

	b.WriteString("\nFigure 2b — RAN DoS: rapid succession of unfinished connections\n\n")
	dos := attackTrace(env, ue.AttackBTSDoS)
	count := 0
	for _, r := range dos {
		if r.Msg == "RRCSetupRequest" {
			fmt.Fprintf(&b, "  RRC Conn. ... Auth. Req.   RNTI %s\n", r.RNTI)
			count++
			if count >= 8 {
				break
			}
		}
	}
	return b.String(), nil
}

func firstBenignSession(env *Env) mobiflow.Trace {
	ues := env.Benign.UEs()
	if len(ues) == 0 {
		return nil
	}
	return env.Benign.FilterUE(ues[0])
}

func attackTrace(env *Env, kind ue.AttackKind) mobiflow.Trace {
	var out mobiflow.Trace
	for i, r := range env.Mixed.Trace {
		if env.Mixed.AttackOf[i] == int(kind) {
			out = append(out, r)
		}
	}
	return out
}

// Figure4Point is one reconstruction-error sample of Figure 4.
type Figure4Point struct {
	Index     int
	Error     float64
	Malicious bool
	// Kind is the attack kind (-1 benign), for the per-attack grouping
	// the figure highlights (① Blind DoS, ② BTS DoS).
	Kind int
}

// Figure4Result is the reconstruction-error series over the attack
// dataset.
type Figure4Result struct {
	Points    []Figure4Point
	Threshold float64
}

// RunFigure4 reproduces Figure 4: the autoencoder's reconstruction errors
// over the attack dataset with the detection threshold.
func RunFigure4(cfg Config) (*Figure4Result, error) {
	cfg.defaults()
	env, err := BuildEnv(cfg)
	if err != nil {
		return nil, err
	}
	scores := env.Models.ScoreTraceAEBatched(env.Mixed.Trace, nn.Float32)
	labels := feature.WindowLabels(env.Mixed.Malicious, cfg.Window)
	res := &Figure4Result{Threshold: env.Models.AEThreshold}
	for i, s := range scores {
		kind := -1
		for j := i; j < i+cfg.Window; j++ {
			if env.Mixed.Malicious[j] {
				kind = env.Mixed.AttackOf[j]
				break
			}
		}
		res.Points = append(res.Points, Figure4Point{
			Index: i, Error: s.Score, Malicious: labels[i], Kind: kind,
		})
	}
	return res, nil
}

// Format renders the series as CSV-ish rows plus an ASCII scatter plot.
func (r *Figure4Result) Format() string {
	var b strings.Builder
	b.WriteString("Figure 4: Autoencoder reconstruction errors over the attack dataset\n")
	fmt.Fprintf(&b, "threshold = %.5f\n\n", r.Threshold)

	// ASCII plot: rows = error buckets (log-ish), cols = downsampled index.
	const cols = 100
	const rowsN = 16
	maxErr := r.Threshold
	for _, p := range r.Points {
		if p.Error > maxErr {
			maxErr = p.Error
		}
	}
	grid := make([][]byte, rowsN)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", cols))
	}
	for _, p := range r.Points {
		c := p.Index * cols / len(r.Points)
		if c >= cols {
			c = cols - 1
		}
		row := int(p.Error / maxErr * float64(rowsN-1))
		if row >= rowsN {
			row = rowsN - 1
		}
		mark := byte('.')
		if p.Kind >= 0 {
			mark = byte('0' + p.Kind) // attack kinds 0-4
		}
		grid[rowsN-1-row][c] = mark
	}
	thrRow := rowsN - 1 - int(r.Threshold/maxErr*float64(rowsN-1))
	for i, line := range grid {
		prefix := "  "
		if i == thrRow {
			prefix = "T>"
		}
		fmt.Fprintf(&b, "%s|%s|\n", prefix, line)
	}
	b.WriteString("   legend: . benign  0 BTS-DoS  1 Blind-DoS  2 UL-IDExtr  3 DL-IDExtr  4 NullCipher  T> threshold\n\n")

	// Series data (downsampled for readability).
	b.WriteString("index,reconstruction_error,malicious,attack_kind\n")
	step := len(r.Points)/200 + 1
	for i := 0; i < len(r.Points); i += step {
		p := r.Points[i]
		fmt.Fprintf(&b, "%d,%.6f,%v,%d\n", p.Index, p.Error, p.Malicious, p.Kind)
	}
	return b.String()
}

// GroupSimilarity quantifies Figure 4's qualitative observation: attack
// instances of the same type exhibit similar error patterns. It returns,
// for each attack kind, the ratio of cross-instance mean error distance
// to within-kind error spread (lower = more similar).
func (r *Figure4Result) GroupSimilarity() map[int]float64 {
	byKind := make(map[int][]float64)
	for _, p := range r.Points {
		if p.Kind >= 0 {
			byKind[p.Kind] = append(byKind[p.Kind], p.Error)
		}
	}
	out := make(map[int]float64)
	for kind, errs := range byKind {
		if len(errs) < 2 {
			continue
		}
		var mean float64
		for _, e := range errs {
			mean += e
		}
		mean /= float64(len(errs))
		var dev float64
		for _, e := range errs {
			d := e - mean
			dev += d * d
		}
		out[kind] = dev / float64(len(errs)) / (mean*mean + 1e-12)
	}
	return out
}

// Figure5 renders the prompt template and the ChatGPT-4o personality's
// response for a BTS DoS window (the paper's Figure 5).
func Figure5(cfg Config) (string, error) {
	cfg.defaults()
	env, err := BuildEnv(cfg)
	if err != nil {
		return "", err
	}
	window := attackTrace(env, ue.AttackBTSDoS)
	if len(window) > 20 {
		window = window[:20]
	}
	prompt := llm.RenderPrompt(window)
	findings, err := llm.AnalyzePrompt(prompt)
	if err != nil {
		return "", err
	}
	response := llm.ChatGPT4o.Respond(findings)

	var b strings.Builder
	b.WriteString("Figure 5: Prompt template and response for a BTS DoS attack event\n")
	b.WriteString("\n--- Prompt -------------------------------------------------------\n")
	b.WriteString(prompt)
	b.WriteString("\n--- Response (chatgpt-4o personality) ----------------------------\n")
	b.WriteString(response)
	return b.String(), nil
}
