package llm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync/atomic"
	"time"
)

// ChatRequest is the REST request body of the expert service, shaped like
// the chat-completion APIs the paper's xApp targets.
type ChatRequest struct {
	Model  string `json:"model"`
	Prompt string `json:"prompt"`
}

// ChatResponse is the REST response body.
type ChatResponse struct {
	Model string `json:"model"`
	Text  string `json:"text"`
}

// ErrorResponse is the REST error body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// maxRequestBytes bounds an analyze request body. A 64-record window with
// its context and retrieved specification text renders to a prompt of
// ≈ 20–30 KB, so 1 MiB is generous; anything larger is answered 413 and
// not read.
const maxRequestBytes = 1 << 20

var errBodyTooLarge = errors.New("llm: body exceeds its size limit")

// readSized reads an HTTP body of at most limit bytes. A body whose length
// was declared (every request Client sends, every response Server writes)
// is read into one buffer of that size — json.Decoder would regrow its
// own, doubling from 512 B, on each call — and one declared or found
// larger than limit is errBodyTooLarge before anything that large is
// allocated. Zero is read as undeclared: that is what a client-side
// request with a streamed body says, and what the in-process transport
// hands the handler unchanged.
func readSized(r io.Reader, declared, limit int64) ([]byte, error) {
	if declared > limit {
		return nil, errBodyTooLarge
	}
	if declared > 0 {
		buf := make([]byte, declared)
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	buf, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err == nil && int64(len(buf)) > limit {
		err = errBodyTooLarge
	}
	return buf, err
}

// Server hosts the model personalities behind an HTTP API:
//
//	POST /v1/analyze  {"model": "...", "prompt": "..."}  →  {"text": "..."}
//	GET  /v1/models                                      →  ["chatgpt-4o", ...]
type Server struct {
	models   map[string]ModelProfile
	requests atomic.Uint64
	// Latency adds artificial per-request service time, modeling remote
	// LLM inference for the latency benchmarks.
	Latency time.Duration
}

// NewServer hosts the given personalities (DefaultModels if none).
func NewServer(models ...ModelProfile) *Server {
	if len(models) == 0 {
		models = DefaultModels
	}
	s := &Server{models: make(map[string]ModelProfile, len(models))}
	for _, m := range models {
		s.models[m.Name] = m
	}
	return s
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/analyze", s.handleAnalyze)
	mux.HandleFunc("/v1/models", s.handleModels)
	return mux
}

// Listen serves the API on addr (use "127.0.0.1:0" for an ephemeral
// port) and returns the bound address and a shutdown function.
func (s *Server) Listen(addr string) (string, func() error, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("llm: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go srv.Serve(l)
	return l.Addr().String(), srv.Close, nil
}

// Transport returns a RoundTripper that serves each request by calling
// the handler in the caller's goroutine: the way to reach a Server living
// in the caller's own process. Requests and responses are what Listen's
// socket would carry, but no connection, server goroutine or network
// poller sits between caller and handler, so a round trip costs no
// scheduler wake-ups (over loopback it needs two, and on saturated CPUs
// each waits for the runtime to poll the network). Cancellation is
// observed when the handler returns.
func (s *Server) Transport() http.RoundTripper { return localTransport{s.Handler()} }

type localTransport struct{ h http.Handler }

func (t localTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	w := &localResponse{header: make(http.Header)}
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	t.h.ServeHTTP(w, req)
	if req.Body != nil {
		req.Body.Close()
	}
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	w.WriteHeader(http.StatusOK)
	return &http.Response{
		Status:        fmt.Sprintf("%d %s", w.status, http.StatusText(w.status)),
		StatusCode:    w.status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        w.header,
		Body:          io.NopCloser(&w.body),
		ContentLength: int64(w.body.Len()),
		Request:       req,
	}, nil
}

// localResponse is the ResponseWriter localTransport hands the handler.
type localResponse struct {
	header http.Header
	status int // 0 until the header is written
	body   bytes.Buffer
}

func (w *localResponse) Header() http.Header { return w.header }

func (w *localResponse) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *localResponse) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "GET only"})
		return
	}
	names := make([]string, 0, len(s.models))
	for _, m := range DefaultModels {
		if _, ok := s.models[m.Name]; ok {
			names = append(names, m.Name)
		}
	}
	// Include any custom models not in the default order.
	for name := range s.models {
		if !slices.Contains(names, name) {
			names = append(names, name)
		}
	}
	writeJSON(w, http.StatusOK, names)
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only"})
		return
	}
	// MaxBytesReader also has net/http close a connection whose client
	// kept sending past the limit, instead of draining it.
	body, err := readSized(http.MaxBytesReader(w, r.Body, maxRequestBytes), r.ContentLength, maxRequestBytes)
	var tooLarge *http.MaxBytesError
	if errors.Is(err, errBodyTooLarge) || errors.As(err, &tooLarge) {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			ErrorResponse{Error: fmt.Sprintf("request body exceeds %d bytes", maxRequestBytes)})
		return
	}
	var req ChatRequest
	if err != nil || json.Unmarshal(body, &req) != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "invalid JSON body"})
		return
	}
	model, ok := s.models[req.Model]
	if !ok {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("unknown model %q", req.Model)})
		return
	}
	if strings.TrimSpace(req.Prompt) == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "empty prompt"})
		return
	}
	findings, err := AnalyzePrompt(req.Prompt)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	if s.Latency > 0 {
		time.Sleep(s.Latency)
	}
	s.requests.Add(1)
	var text string
	if HasKnowledge(req.Prompt) {
		// RAG mode: the prompt carries retrieved specification context,
		// which lifts the model's zero-shot blind spots (§5).
		text = model.respondWithKnowledge(findings, req.Prompt)
	} else {
		text = model.Respond(findings)
	}
	writeJSON(w, http.StatusOK, ChatResponse{Model: req.Model, Text: text})
}
