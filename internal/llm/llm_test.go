package llm

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/ue"
)

// mixed generates the shared attack dataset for the tests.
func mixed(t *testing.T) *dataset.Labeled {
	t.Helper()
	l, err := dataset.GenerateMixed(dataset.MixedConfig{
		BenignConfig:       dataset.BenignConfig{Fleet: 8, Seed: 17},
		InstancesPerAttack: 1,
		BenignBetween:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// attackWindow extracts the telemetry of one attack event.
func attackWindow(l *dataset.Labeled, kind ue.AttackKind) mobiflow.Trace {
	var w mobiflow.Trace
	for i, r := range l.Trace {
		if l.AttackOf[i] == int(kind) {
			w = append(w, r)
		}
	}
	return w
}

// benignWindow extracts a window of benign records.
func benignWindow(l *dataset.Labeled, skip, n int) mobiflow.Trace {
	var w mobiflow.Trace
	seen := 0
	for i, r := range l.Trace {
		if l.AttackOf[i] == -1 {
			seen++
			if seen > skip {
				w = append(w, r)
				if len(w) == n {
					break
				}
			}
		}
	}
	return w
}

var expectedClass = map[ue.AttackKind]AttackClass{
	ue.AttackBTSDoS:               ClassBTSDoS,
	ue.AttackBlindDoS:             ClassBlindDoS,
	ue.AttackUplinkIDExtraction:   ClassUplinkIDExtraction,
	ue.AttackDownlinkIDExtraction: ClassDownlinkIDExtraction,
	ue.AttackNullCipher:           ClassNullCipher,
}

func TestPromptRenderAndExtract(t *testing.T) {
	l := mixed(t)
	w := benignWindow(l, 0, 6)
	prompt := RenderPrompt(w)
	for _, want := range []string{"AI security analyst", "DATA:", "anomalous or benign", "top 3"} {
		if !strings.Contains(prompt, want) {
			t.Errorf("prompt missing %q", want)
		}
	}
	lines, err := ExtractData(prompt)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 6 {
		t.Errorf("extracted %d lines, want 6", len(lines))
	}
	if _, err := ExtractData("no data here"); err == nil {
		t.Error("prompt without DATA accepted")
	}
}

func TestParseLine(t *testing.T) {
	line := "#42 UL NAS IdentityResponse rnti=0x4601 tmsi=0xCAFEBABE supi=imsi-001010000000001(PLAINTEXT) cipher=NEA0 integ=NIA0 sec=off cause=mo-Signalling rrc=CONNECTED nas=REG_INITIATED OUT-OF-ORDER"
	rec, err := parseLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if rec.seq != 42 || rec.dir != "UL" || rec.layer != "NAS" || rec.msg != "IdentityResponse" {
		t.Errorf("parsed %+v", rec)
	}
	if rec.rnti != "0x4601" || rec.tmsi != "0xCAFEBABE" || !rec.supiPlain {
		t.Errorf("identity fields: %+v", rec)
	}
	if !rec.cipherNull || !rec.integNull || rec.secOn || !rec.outOfOrder || rec.retx {
		t.Errorf("flags: %+v", rec)
	}
	if _, err := parseLine("garbage"); err == nil {
		t.Error("garbage line accepted")
	}
}

func TestEngineDetectsEveryAttack(t *testing.T) {
	l := mixed(t)
	for kind, wantClass := range expectedClass {
		w := attackWindow(l, kind)
		if len(w) == 0 {
			t.Fatalf("%v: empty window", kind)
		}
		findings, err := AnalyzePrompt(RenderPrompt(w))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		found := false
		for _, f := range findings {
			if f.Class == wantClass {
				found = true
			}
		}
		if !found {
			t.Errorf("%v: engine findings %v lack %v", kind, findings, wantClass)
		}
	}
}

func TestEngineBenignHasNoFindings(t *testing.T) {
	l := mixed(t)
	for skip := 0; skip < 40; skip += 20 {
		w := benignWindow(l, skip, 15)
		findings, err := AnalyzePrompt(RenderPrompt(w))
		if err != nil {
			t.Fatal(err)
		}
		if len(findings) != 0 {
			t.Errorf("benign window (skip %d) produced findings %v", skip, findings)
		}
	}
}

// TestTable3Matrix verifies the five personalities reproduce the paper's
// Table 3 exactly: which model correctly classifies which attack.
func TestTable3Matrix(t *testing.T) {
	l := mixed(t)

	// Table 3 of the paper: rows = attacks, columns = models.
	want := map[ue.AttackKind]map[string]bool{
		ue.AttackBTSDoS:               {"chatgpt-4o": true, "gemini": true, "copilot": true, "llama3": false, "claude-3-sonnet": false},
		ue.AttackBlindDoS:             {"chatgpt-4o": true, "gemini": false, "copilot": false, "llama3": true, "claude-3-sonnet": false},
		ue.AttackUplinkIDExtraction:   {"chatgpt-4o": false, "gemini": false, "copilot": false, "llama3": false, "claude-3-sonnet": true},
		ue.AttackDownlinkIDExtraction: {"chatgpt-4o": true, "gemini": true, "copilot": false, "llama3": true, "claude-3-sonnet": true},
		ue.AttackNullCipher:           {"chatgpt-4o": true, "gemini": true, "copilot": false, "llama3": true, "claude-3-sonnet": true},
	}

	for kind, row := range want {
		w := attackWindow(l, kind)
		findings, err := AnalyzePrompt(RenderPrompt(w))
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range DefaultModels {
			analysis, err := ParseResponse(model.Respond(findings))
			if err != nil {
				t.Fatalf("%v/%s: %v", kind, model.Name, err)
			}
			correct := analysis.Verdict == VerdictAnomalous && analysis.TopClass() == expectedClass[kind]
			if correct != row[model.Name] {
				t.Errorf("%v / %s: correct=%v, Table 3 says %v (top=%v verdict=%v)",
					kind, model.Name, correct, row[model.Name], analysis.TopClass(), analysis.Verdict)
			}
		}
	}

	// The two benign rows: every model classifies them correctly.
	for i, skip := range []int{0, 30} {
		w := benignWindow(l, skip, 15)
		findings, err := AnalyzePrompt(RenderPrompt(w))
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range DefaultModels {
			analysis, err := ParseResponse(model.Respond(findings))
			if err != nil {
				t.Fatal(err)
			}
			if analysis.Verdict != VerdictBenign {
				t.Errorf("benign %d / %s: verdict %v", i+1, model.Name, analysis.Verdict)
			}
		}
	}
}

func TestResponsesAreDeterministic(t *testing.T) {
	// §4.2: repeated experiments observed consistent results.
	l := mixed(t)
	w := attackWindow(l, ue.AttackBTSDoS)
	prompt := RenderPrompt(w)
	findings, err := AnalyzePrompt(prompt)
	if err != nil {
		t.Fatal(err)
	}
	first := ChatGPT4o.Respond(findings)
	for i := 0; i < 5; i++ {
		if got := ChatGPT4o.Respond(findings); got != first {
			t.Fatal("responses differ across repetitions")
		}
	}
}

func TestServerClientEndToEnd(t *testing.T) {
	l := mixed(t)
	srv := NewServer()
	addr, shutdown, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	client := NewClient("http://"+addr, "chatgpt-4o")
	models, err := client.Models(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 5 || models[0] != "chatgpt-4o" {
		t.Errorf("models = %v", models)
	}

	analysis, err := client.AnalyzeWindow(context.Background(), attackWindow(l, ue.AttackBTSDoS))
	if err != nil {
		t.Fatal(err)
	}
	if analysis.Verdict != VerdictAnomalous || analysis.TopClass() != ClassBTSDoS {
		t.Errorf("analysis = verdict %v, top %v", analysis.Verdict, analysis.TopClass())
	}
	if analysis.Explanation == "" || analysis.Attribution == "" || len(analysis.Remediation) == 0 {
		t.Error("analysis missing explanation/attribution/remediation")
	}
	if analysis.Model != "chatgpt-4o" {
		t.Errorf("model = %q", analysis.Model)
	}
	if srv.Requests() != 1 {
		t.Errorf("server requests = %d", srv.Requests())
	}
}

func TestServerErrors(t *testing.T) {
	srv := NewServer()
	addr, shutdown, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	// Unknown model.
	c := NewClient("http://"+addr, "gpt-99")
	if _, err := c.AnalyzePromptText(context.Background(), "DATA:\n#1 UL RRC RRCSetupRequest rnti=0x1\nDetermine"); err == nil {
		t.Error("unknown model accepted")
	}
	// Empty window at the client.
	c = NewClient("http://"+addr, "gemini")
	if _, err := c.AnalyzeWindow(context.Background(), nil); err == nil {
		t.Error("empty window accepted")
	}
	// Prompt without data.
	if _, err := c.AnalyzePromptText(context.Background(), "hello"); err == nil {
		t.Error("dataless prompt accepted")
	}
}

// The in-process transport must be indistinguishable from the socket:
// same status, content type and body for good and bad requests alike.
func TestServerTransportMatchesSocket(t *testing.T) {
	l := mixed(t)
	srv := NewServer()
	addr, shutdown, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	socket := &http.Client{}
	local := &http.Client{Transport: srv.Transport()}

	good, _ := json.Marshal(ChatRequest{Model: "chatgpt-4o", Prompt: RenderPrompt(attackWindow(l, ue.AttackBTSDoS))})
	unknown, _ := json.Marshal(ChatRequest{Model: "gpt-99", Prompt: "x"})
	for _, tc := range []struct{ name, method, path, body string }{
		{"analyze", http.MethodPost, "/v1/analyze", string(good)},
		{"unknown model", http.MethodPost, "/v1/analyze", string(unknown)},
		{"bad json", http.MethodPost, "/v1/analyze", "{"},
		{"wrong method", http.MethodGet, "/v1/analyze", ""},
		{"models", http.MethodGet, "/v1/models", ""},
		{"no route", http.MethodGet, "/v2/nothing", ""},
	} {
		fetch := func(c *http.Client) (int, string, string) {
			req, err := http.NewRequest(tc.method, "http://"+addr+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := c.Do(req)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
		}
		wantStatus, wantType, wantBody := fetch(socket)
		status, ctype, body := fetch(local)
		if status != wantStatus || ctype != wantType || body != wantBody {
			t.Errorf("%s: in-process %d %q %q, socket %d %q %q", tc.name, status, ctype, body, wantStatus, wantType, wantBody)
		}
	}
	if srv.Requests() != 2 {
		t.Errorf("server requests = %d, want one analyze per transport", srv.Requests())
	}

	// A full client over the transport, and a cancelled context refused.
	client := NewClient("http://expert.invalid", "chatgpt-4o")
	client.HTTPClient = local
	analysis, err := client.AnalyzeWindow(context.Background(), attackWindow(l, ue.AttackBTSDoS))
	if err != nil || analysis.TopClass() != ClassBTSDoS {
		t.Errorf("analysis over transport = %+v, %v", analysis, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.AnalyzeWindow(ctx, attackWindow(l, ue.AttackBTSDoS)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled request: err = %v", err)
	}
}

func TestParseResponseEdgeCases(t *testing.T) {
	if _, err := ParseResponse("no signal words here"); err == nil {
		t.Error("verdictless response accepted")
	}
	a, err := ParseResponse("this sequence looks benign to me")
	if err != nil || a.Verdict != VerdictBenign {
		t.Errorf("free-form benign: %+v, %v", a, err)
	}
	a, err = ParseResponse("I believe this is anomalous traffic")
	if err != nil || a.Verdict != VerdictAnomalous {
		t.Errorf("free-form anomalous: %+v, %v", a, err)
	}
}

func TestVerdictAndClassStrings(t *testing.T) {
	if VerdictBenign.String() != "BENIGN" || VerdictAnomalous.String() != "ANOMALOUS" {
		t.Error("verdict names wrong")
	}
	if ClassBTSDoS.String() != "Signaling Storm (BTS DoS)" {
		t.Errorf("got %q", ClassBTSDoS.String())
	}
	if AttackClass(99).String() != "AttackClass(99)" {
		t.Error("unknown class name wrong")
	}
}

func TestFigure5StyleResponse(t *testing.T) {
	// Figure 5: the BTS DoS response must identify a signaling storm
	// from repeated connection patterns.
	l := mixed(t)
	findings, err := AnalyzePrompt(RenderPrompt(attackWindow(l, ue.AttackBTSDoS)))
	if err != nil {
		t.Fatal(err)
	}
	text := ChatGPT4o.Respond(findings)
	for _, want := range []string{"ANOMALOUS", "Signaling Storm", "Recommended remediation"} {
		if !strings.Contains(text, want) {
			t.Errorf("response missing %q:\n%s", want, text)
		}
	}
}

// TestServerRefusesOversizedRequest: a request body past maxRequestBytes —
// declared so, or streamed without a length — is answered 413 with an
// ErrorResponse over socket and in-process transport alike, and the server
// goes on serving.
func TestServerRefusesOversizedRequest(t *testing.T) {
	l := mixed(t)
	srv := NewServer()
	addr, shutdown, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	huge, _ := json.Marshal(ChatRequest{Model: "chatgpt-4o", Prompt: strings.Repeat("A", maxRequestBytes)})
	for _, tr := range []struct {
		name   string
		client *http.Client
	}{{"socket", &http.Client{}}, {"in-process", &http.Client{Transport: srv.Transport()}}} {
		for _, declared := range []bool{true, false} {
			var body io.Reader = strings.NewReader(string(huge))
			if !declared {
				body = io.MultiReader(body) // hides the length: sent chunked
			}
			resp, err := tr.client.Post("http://"+addr+"/v1/analyze", "application/json", body)
			if err != nil {
				t.Fatalf("%s, declared=%v: %v", tr.name, declared, err)
			}
			var apiErr ErrorResponse
			decodeErr := json.NewDecoder(resp.Body).Decode(&apiErr)
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge || decodeErr != nil || apiErr.Error == "" {
				t.Errorf("%s, declared=%v: status %d, body %+v (%v); want 413 and an ErrorResponse",
					tr.name, declared, resp.StatusCode, apiErr, decodeErr)
			}
		}
	}
	if srv.Requests() != 0 {
		t.Errorf("%d oversized requests were analyzed", srv.Requests())
	}
	client := NewClient("http://"+addr, "chatgpt-4o")
	if a, err := client.AnalyzeWindow(context.Background(), attackWindow(l, ue.AttackBTSDoS)); err != nil || a.TopClass() != ClassBTSDoS {
		t.Errorf("after the refusals the server answers %+v, %v", a, err)
	}
}

// endless is a response body that never ends; read counts what was taken.
type endless struct{ read int64 }

func (e *endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'A'
	}
	e.read += int64(len(p))
	return len(p), nil
}

// respondWith is a transport answering every request with one response.
type respondWith func() *http.Response

func (f respondWith) RoundTrip(*http.Request) (*http.Response, error) { return f(), nil }

// TestClientRefusesOversizedResponse: a response that declares a terabyte,
// or streams without end, is an error on every client path — after at most
// maxResponseBytes and a read-ahead are taken from it, and without a
// buffer sized by what the endpoint claims.
func TestClientRefusesOversizedResponse(t *testing.T) {
	for _, tc := range []struct {
		name     string
		status   int
		declared int64
	}{
		{"declared, 200", http.StatusOK, 1 << 40},
		{"undeclared, 200", http.StatusOK, -1},
		{"undeclared, 500", http.StatusInternalServerError, -1},
	} {
		body := &endless{}
		client := NewClient("http://expert.invalid", "chatgpt-4o")
		client.HTTPClient = &http.Client{Transport: respondWith(func() *http.Response {
			return &http.Response{StatusCode: tc.status, ContentLength: tc.declared, Body: io.NopCloser(body), Header: http.Header{}}
		})}
		if _, err := client.AnalyzePromptText(context.Background(), "DATA:\n#1 UL RRC RRCSetupRequest rnti=0x1\nDetermine"); err == nil {
			t.Errorf("%s: analyze accepted an endless response", tc.name)
		}
		if _, err := client.Models(context.Background()); err == nil {
			t.Errorf("%s: model listing accepted an endless response", tc.name)
		}
		if limit := int64(2 * (maxResponseBytes + 64<<10)); body.read > limit {
			t.Errorf("%s: %d bytes read from two oversized responses, want at most %d", tc.name, body.read, limit)
		}
	}
}
