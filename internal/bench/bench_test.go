package bench

import (
	"strings"
	"testing"

	"github.com/6g-xsec/xsec/internal/ue"
)

func quickCfg() Config { return Quick(77) }

func TestTable1(t *testing.T) {
	out := Table1()
	for _, want := range []string{"RNTI", "S-TMSI", "SUPI", "Cipher_alg", "Establish_cause"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	res, err := RunTable2(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Accuracy <= 0.5 || row.Accuracy > 1 {
			t.Errorf("%s/%s accuracy = %v", row.Dataset, row.Model, row.Accuracy)
		}
	}
	// Benign rows are high-but-imperfect; attack rows have recall.
	if res.Rows[0].Dataset != "Benign" || !res.Rows[0].NA {
		t.Error("row 0 should be the benign AE row")
	}
	if res.Rows[2].Recall < 0.7 {
		t.Errorf("attack AE recall = %v", res.Rows[2].Recall)
	}
	// The paper's headline: every attack event detected.
	if res.EventRecallAE < 0.999 {
		t.Errorf("AE event recall = %v, want 1.0", res.EventRecallAE)
	}
	if res.EventRecallLSTM < 0.999 {
		t.Errorf("LSTM event recall = %v, want 1.0", res.EventRecallLSTM)
	}
	out := res.Format()
	if !strings.Contains(out, "Autoencoder") || !strings.Contains(out, "N/A") {
		t.Errorf("Format output malformed:\n%s", out)
	}
}

func TestFigure2(t *testing.T) {
	out, err := Figure2(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"RRCSetupRequest", "IdentityResponse", "plaintext identity", "RNTI 0x"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 2 missing %q", want)
		}
	}
	// The RNTI stream shows multiple distinct identifiers.
	if strings.Count(out, "RRC Conn. ... Auth. Req.") < 5 {
		t.Error("Figure 2b stream too short")
	}
}

func TestFigure4(t *testing.T) {
	res, err := RunFigure4(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) == 0 || res.Threshold <= 0 {
		t.Fatal("empty figure")
	}
	// Attack points exist above the threshold, benign mass below.
	above, benignBelow, benignTotal := 0, 0, 0
	for _, p := range res.Points {
		if p.Malicious && p.Error > res.Threshold {
			above++
		}
		if !p.Malicious {
			benignTotal++
			if p.Error <= res.Threshold {
				benignBelow++
			}
		}
	}
	if above == 0 {
		t.Error("no attack point above threshold")
	}
	if float64(benignBelow)/float64(benignTotal) < 0.9 {
		t.Errorf("benign mass below threshold = %d/%d", benignBelow, benignTotal)
	}
	out := res.Format()
	if !strings.Contains(out, "T>") || !strings.Contains(out, "legend") {
		t.Error("plot malformed")
	}
}

func TestTable3MatchesPaper(t *testing.T) {
	res, err := RunTable3(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's matrix, row by row.
	want := map[string]map[string]bool{
		ue.AttackBTSDoS.String():               {"chatgpt-4o": true, "gemini": true, "copilot": true, "llama3": false, "claude-3-sonnet": false},
		ue.AttackBlindDoS.String():             {"chatgpt-4o": true, "gemini": false, "copilot": false, "llama3": true, "claude-3-sonnet": false},
		ue.AttackUplinkIDExtraction.String():   {"chatgpt-4o": false, "gemini": false, "copilot": false, "llama3": false, "claude-3-sonnet": true},
		ue.AttackDownlinkIDExtraction.String(): {"chatgpt-4o": true, "gemini": true, "copilot": false, "llama3": true, "claude-3-sonnet": true},
		ue.AttackNullCipher.String():           {"chatgpt-4o": true, "gemini": true, "copilot": false, "llama3": true, "claude-3-sonnet": true},
		"Benign Sequence 1":                    {"chatgpt-4o": true, "gemini": true, "copilot": true, "llama3": true, "claude-3-sonnet": true},
		"Benign Sequence 2":                    {"chatgpt-4o": true, "gemini": true, "copilot": true, "llama3": true, "claude-3-sonnet": true},
	}
	for trace, row := range want {
		for model, correct := range row {
			if got := res.Correct[trace][model]; got != correct {
				t.Errorf("%s / %s = %v, paper says %v", trace, model, got, correct)
			}
		}
	}
	// ChatGPT-4o leads with a single miss (6/7).
	scores := res.Score()
	if scores["chatgpt-4o"] != 6 {
		t.Errorf("chatgpt-4o score = %d, want 6", scores["chatgpt-4o"])
	}
	for model, s := range scores {
		if model != "chatgpt-4o" && s > scores["chatgpt-4o"] {
			t.Errorf("%s (%d) outscores chatgpt-4o", model, s)
		}
	}
	out := res.Format()
	if !strings.Contains(out, "chatgpt-4o") {
		t.Error("Format output malformed")
	}
}

func TestFigure5(t *testing.T) {
	out, err := Figure5(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"AI security analyst", "DATA:", "Signaling Storm", "ANOMALOUS"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 5 missing %q", want)
		}
	}
}

func TestAblationThreshold(t *testing.T) {
	res, err := AblationThreshold(quickCfg(), []float64{99, 95, 90})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Lower percentile → lower benign accuracy, higher (or equal) recall.
	if res.Rows[0].BenignAccuracy < res.Rows[2].BenignAccuracy {
		t.Error("benign accuracy not monotone in percentile")
	}
	if res.Rows[0].Recall > res.Rows[2].Recall {
		t.Error("recall not monotone against percentile")
	}
	if !strings.Contains(res.Format(), "p99") {
		t.Error("Format malformed")
	}
}

func TestAblationWindowSize(t *testing.T) {
	res, err := AblationWindowSize(quickCfg(), []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.EventRecall < 0.999 {
			t.Errorf("%s: event recall %v", row.Param, row.EventRecall)
		}
	}
}

func TestAblationBottleneck(t *testing.T) {
	res, err := AblationBottleneck(quickCfg(), []int{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}

func TestEnvCaching(t *testing.T) {
	cfg := quickCfg()
	a, err := BuildEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("env not cached for identical configs")
	}
}
