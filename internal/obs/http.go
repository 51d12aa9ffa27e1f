package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
)

var (
	extMu       sync.Mutex
	extHandlers map[string]http.Handler

	healthMu     sync.Mutex
	healthChecks map[string]func() (string, error)
)

// RegisterHealthDetail adds a named readiness check to /healthz. The
// probe returns 200 only while every registered check returns a nil
// error; a failing check flips it to 503 with one "name: error" line per
// failure, so an orchestrator sees exactly which dependency is degraded.
// The detail (e.g. "hits=12 misses=3") appears only in the JSON form
// (?format=json or an Accept: application/json request). Re-registering
// a name replaces it.
func RegisterHealthDetail(name string, check func() (detail string, err error)) {
	healthMu.Lock()
	defer healthMu.Unlock()
	if healthChecks == nil {
		healthChecks = make(map[string]func() (string, error))
	}
	healthChecks[name] = check
}

// UnregisterHealth removes a readiness check (e.g. when the component
// that registered it shuts down).
func UnregisterHealth(name string) {
	healthMu.Lock()
	defer healthMu.Unlock()
	delete(healthChecks, name)
}

// HealthStatus is one subsystem's state in the structured /healthz
// response.
type HealthStatus struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
	Err    string `json:"err,omitempty"`
}

// HealthSnapshot evaluates every registered check, sorted by name.
func HealthSnapshot() []HealthStatus {
	healthMu.Lock()
	names := make([]string, 0, len(healthChecks))
	for n := range healthChecks {
		names = append(names, n)
	}
	sort.Strings(names)
	checks := make([]func() (string, error), 0, len(names))
	for _, n := range names {
		checks = append(checks, healthChecks[n])
	}
	healthMu.Unlock()

	out := make([]HealthStatus, 0, len(names))
	for i, check := range checks {
		detail, err := check()
		st := HealthStatus{Name: names[i], OK: err == nil, Detail: detail}
		if err != nil {
			st.Err = err.Error()
		}
		out = append(out, st)
	}
	return out
}

func serveHealthz(w http.ResponseWriter, r *http.Request) {
	statuses := HealthSnapshot()
	ok := true
	for _, st := range statuses {
		if !st.OK {
			ok = false
		}
	}

	wantJSON := r != nil && (r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json"))
	if wantJSON {
		w.Header().Set("Content-Type", "application/json")
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(struct {
			Status string         `json:"status"`
			Checks []HealthStatus `json:"checks"`
		}{Status: map[bool]string{true: "ok", false: "degraded"}[ok], Checks: statuses})
		return
	}

	// Plain-text contract, unchanged since PR 2: "ok\n" on 200, one
	// "name: error" line per failure on 503.
	if !ok {
		w.WriteHeader(http.StatusServiceUnavailable)
		for _, st := range statuses {
			if !st.OK {
				fmt.Fprintf(w, "%s: %s\n", st.Name, st.Err)
			}
		}
		return
	}
	w.Write([]byte("ok\n"))
}

// Handle registers an extension endpoint mounted by every subsequent
// NewHandler call (and by ListenAndServe). Packages layered above obs
// (e.g. the provenance ledger's /prov) use it to join the observability
// surface without introducing an import cycle.
func Handle(pattern string, h http.Handler) {
	extMu.Lock()
	defer extMu.Unlock()
	if extHandlers == nil {
		extHandlers = make(map[string]http.Handler)
	}
	extHandlers[pattern] = h
}

// NewHandler returns the observability endpoint for a registry and
// tracer:
//
//	/metrics      Prometheus text exposition (version 0.0.4)
//	/traces       retained pipeline spans as JSON, oldest first
//	/healthz      readiness probe aggregating RegisterHealthDetail checks
//	/debug/pprof  the standard Go profiler surface
func NewHandler(reg *Registry, tr *Tracer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		spans := tr.Spans()
		if key := r.URL.Query().Get("key"); key != "" {
			spans = tr.ByKey(key)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(spans)
	})
	mux.HandleFunc("/healthz", serveHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	extMu.Lock()
	for p, h := range extHandlers {
		mux.Handle(p, h)
	}
	extMu.Unlock()
	return mux
}

// ListenAndServe exposes the Default registry and DefaultTracer on
// addr (e.g. ":9090", or "127.0.0.1:0" to pick a free port). It
// returns the bound address and a shutdown function.
func ListenAndServe(addr string) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: NewHandler(Default, DefaultTracer)}
	go srv.Serve(ln)
	return ln.Addr().String(), srv.Close, nil
}
