package llm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/prov"
)

// LLM client observability: round-trip latency, request outcomes per
// model, approximate prompt volume, and the verdict distribution.
// xsec_llm_request_seconds and xsec_llm_requests_total count individual
// REST attempts (a hedged request observes twice); the prompt-token
// counter is maintained at the logical-request level — one rendered
// prompt counts once no matter how many attempts it takes to answer it.
var (
	obsRequests = obs.NewCounterVec("xsec_llm_requests_total",
		"LLM REST queries, by model and outcome.", "model", "outcome")
	obsReqSeconds = obs.NewHistogram("xsec_llm_request_seconds",
		"LLM REST round-trip latency, including response parsing.",
		obs.ExpBuckets(1e-4, 2, 16))
	obsPromptTokens = obs.NewCounter("xsec_llm_prompt_tokens_total",
		"Approximate prompt tokens submitted (chars/4 heuristic), counted once per rendered prompt.")
	obsVerdicts = obs.NewCounterVec("xsec_llm_verdicts_total",
		"Parsed verdicts returned by the LLM.", "verdict")
)

// DefaultRequestTimeout bounds one REST attempt when the caller's
// context carries no deadline of its own.
const DefaultRequestTimeout = 30 * time.Second

// maxResponseBytes bounds a response body the client will read: an
// analysis is a few KB of text, and the endpoint is a remote service the
// RIC does not control.
const maxResponseBytes = 1 << 20

// decodeBody parses a response's JSON body, read under maxResponseBytes.
func decodeBody(resp *http.Response, v any) error {
	data, err := readSized(resp.Body, resp.ContentLength, maxResponseBytes)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// Client queries a model endpoint over REST (§3.3: "accesses the LLMs
// through RESTful web APIs"). Point BaseURL at the built-in expert
// service or at any compatible real endpoint. All query methods take a
// context.Context: cancellation propagates into the HTTP round trip, so
// an analyzer shutting down (or a hedged attempt losing the race)
// aborts the in-flight request instead of blocking on a wall-clock
// timeout.
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8090".
	BaseURL string
	// Model selects the personality / model identifier.
	Model string
	// RAG enables retrieval-augmented prompting: relevant 3GPP
	// specification passages are retrieved from the knowledge base and
	// appended to every prompt (§5, "Specialized LLM for 6G").
	RAG bool
	// Knowledge overrides the retrieval corpus (DefaultKnowledgeBase
	// when nil and RAG is set).
	Knowledge []KnowledgeEntry
	// Timeout bounds one REST attempt when the context has no deadline
	// (DefaultRequestTimeout when zero). Contexts with deadlines win.
	Timeout time.Duration
	// HTTPClient defaults to a plain client; per-request deadlines come
	// from the context, not from http.Client.Timeout.
	HTTPClient *http.Client
}

// NewClient builds a client for one model at a base URL.
func NewClient(baseURL, model string) *Client {
	return &Client{
		BaseURL:    strings.TrimRight(baseURL, "/"),
		Model:      model,
		HTTPClient: &http.Client{},
	}
}

// renderPrompt renders the window into the (optionally RAG-augmented)
// prompt text this client would submit.
func (c *Client) renderPrompt(window mobiflow.Trace) string {
	prompt := RenderPrompt(window)
	if c.RAG {
		kb := c.Knowledge
		if kb == nil {
			kb = DefaultKnowledgeBase
		}
		prompt = AugmentPrompt(prompt, kb)
	}
	return prompt
}

// AnalyzeWindow renders the prompt for a telemetry window, queries the
// model, and parses the structured analysis out of the response text.
func (c *Client) AnalyzeWindow(ctx context.Context, window mobiflow.Trace) (*Analysis, error) {
	if len(window) == 0 {
		return nil, fmt.Errorf("llm: empty window")
	}
	return c.AnalyzePromptText(ctx, c.renderPrompt(window))
}

// AnalyzePromptText sends an already-rendered prompt. The prompt-token
// metric is charged here, once per call, before any transport attempt.
func (c *Client) AnalyzePromptText(ctx context.Context, prompt string) (*Analysis, error) {
	CountPromptTokens(prompt)
	return c.do(ctx, prompt)
}

// CountPromptTokens charges the prompt-token metric for one rendered
// prompt (chars/4 heuristic). The serving layer calls it once per
// logical request, however many hedged or retried attempts follow.
func CountPromptTokens(prompt string) {
	obsPromptTokens.Add(uint64(len(prompt)+3) / 4)
}

// withDeadline applies the client's fallback timeout when the caller's
// context has none.
func (c *Client) withDeadline(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = DefaultRequestTimeout
	}
	return context.WithTimeout(ctx, timeout)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do performs one REST attempt: no token accounting, no caching — the
// raw transport the serving layer hedges over.
func (c *Client) do(ctx context.Context, prompt string) (*Analysis, error) {
	start := time.Now()
	defer func() { obsReqSeconds.ObserveSeconds(time.Since(start).Nanoseconds()) }()

	body, err := json.Marshal(ChatRequest{Model: c.Model, Prompt: prompt})
	if err != nil {
		return nil, fmt.Errorf("llm: encoding request: %w", err)
	}
	ctx, cancel := c.withDeadline(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("llm: building request: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.httpClient().Do(req)
	if err != nil {
		obsRequests.With(c.Model, "transport_error").Inc()
		return nil, fmt.Errorf("llm: querying %s: %w", c.Model, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var apiErr ErrorResponse
		_ = decodeBody(resp, &apiErr) // best effort: the status is the error, the body its detail
		obsRequests.With(c.Model, "http_error").Inc()
		return nil, fmt.Errorf("llm: %s returned HTTP %d: %s", c.Model, resp.StatusCode, apiErr.Error)
	}
	var chat ChatResponse
	if err := decodeBody(resp, &chat); err != nil {
		obsRequests.With(c.Model, "bad_response").Inc()
		return nil, fmt.Errorf("llm: decoding response: %w", err)
	}
	analysis, err := ParseResponse(chat.Text)
	if err != nil {
		// An unparseable verdict is itself a signal (§3.3); count it
		// apart from transport failures.
		obsRequests.With(c.Model, "unparseable").Inc()
		return nil, err
	}
	analysis.Model = c.Model
	analysis.Served = ServedLive
	analysis.PromptDigest = prov.DigestText(prompt)
	obsRequests.With(c.Model, "ok").Inc()
	obsVerdicts.With(analysis.Verdict.String()).Inc()
	return analysis, nil
}

// Models lists the models the endpoint hosts.
func (c *Client) Models(ctx context.Context) ([]string, error) {
	ctx, cancel := c.withDeadline(ctx)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/models", nil)
	if err != nil {
		return nil, fmt.Errorf("llm: building request: %w", err)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("llm: listing models: %w", err)
	}
	defer resp.Body.Close()
	var names []string
	if err := decodeBody(resp, &names); err != nil {
		return nil, fmt.Errorf("llm: decoding model list: %w", err)
	}
	return names, nil
}

// classByLabel resolves a rendered class label back to its enum.
var classByLabel = func() map[string]AttackClass {
	m := make(map[string]AttackClass)
	for c := ClassBTSDoS; c <= ClassNullCipher; c++ {
		m[c.String()] = c
	}
	return m
}()

// ParseResponse extracts the structured Analysis from a model's response
// text. It is intentionally tolerant: models phrase things differently,
// and an unparseable verdict is itself a signal the xApp must escalate
// (the hallucination problem, §3.3).
func ParseResponse(text string) (*Analysis, error) {
	a := &Analysis{Raw: text, Confidence: 0.5}
	lower := strings.ToLower(text)
	switch {
	case strings.Contains(lower, "verdict: anomalous"):
		a.Verdict = VerdictAnomalous
	case strings.Contains(lower, "verdict: benign"):
		a.Verdict = VerdictBenign
	case strings.Contains(lower, "anomalous"):
		a.Verdict = VerdictAnomalous
	case strings.Contains(lower, "benign"):
		a.Verdict = VerdictBenign
	default:
		return nil, fmt.Errorf("llm: response contains no verdict")
	}

	for _, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		switch {
		case strings.Contains(line, "confidence"):
			if start := strings.Index(line, "confidence "); start >= 0 {
				numStr := strings.TrimRight(line[start+len("confidence "):], ")")
				if v, err := strconv.ParseFloat(numStr, 64); err == nil {
					a.Confidence = v
				}
			}
		case strings.HasPrefix(line, "Explanation: "):
			a.Explanation = strings.TrimPrefix(line, "Explanation: ")
		case strings.HasPrefix(line, "Attribution: "):
			a.Attribution = strings.TrimPrefix(line, "Attribution: ")
		case strings.HasPrefix(line, "- "):
			a.Remediation = append(a.Remediation, strings.TrimPrefix(line, "- "))
		case len(line) > 3 && line[0] >= '1' && line[0] <= '9' && line[1] == '.':
			// Ranked hypothesis: "N. <class> (likelihood X): ..."
			h := Hypothesis{Class: ClassUnknown}
			for label, class := range classByLabel {
				if strings.Contains(line, label) {
					h.Class = class
					break
				}
			}
			if idx := strings.Index(line, "likelihood "); idx >= 0 {
				numStr := line[idx+len("likelihood "):]
				if end := strings.IndexAny(numStr, ")"); end > 0 {
					if v, err := strconv.ParseFloat(numStr[:end], 64); err == nil {
						h.Likelihood = v
					}
				}
			}
			if idx := strings.Index(line, "): "); idx >= 0 {
				h.Implications = line[idx+3:]
			}
			a.Hypotheses = append(a.Hypotheses, h)
		}
	}
	return a, nil
}
