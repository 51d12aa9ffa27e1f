package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/6g-xsec/xsec/internal/core"
	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/llm"
	"github.com/6g-xsec/xsec/internal/mitigate"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/ue"
)

// This file produces the LLM analyzer throughput baseline
// (BENCH_llm.json, `xsec-bench -llm`): alerts/sec through the serving
// layer with a cold vs warm verdict cache, coalescing under an identical
// burst, the hedged latency tail against a straggling endpoint, and a
// saturation drill through the full pipeline proving zero dropped alerts
// (every alert gets a live, cached, or degraded verdict) with complete
// provenance chains behind every issued mitigation.

// LLMOptions scales the benchmark.
type LLMOptions struct {
	// Seed drives dataset generation and training (default 1).
	Seed int64
	// Smoke shrinks every phase so CI exercises the path quickly.
	Smoke bool
}

// LLMBenchResult is the machine-readable baseline.
type LLMBenchResult struct {
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Model      string `json:"model"`
	Workers    int    `json:"workers"`
	Smoke      bool   `json:"smoke,omitempty"`

	// Cold vs warm cache throughput over the same distinct-window set.
	ColdAlerts       int     `json:"cold_alerts"`
	ColdSeconds      float64 `json:"cold_seconds"`
	ColdAlertsPerSec float64 `json:"cold_alerts_per_sec"`
	WarmAlerts       int     `json:"warm_alerts"`
	WarmSeconds      float64 `json:"warm_seconds"`
	WarmAlertsPerSec float64 `json:"warm_alerts_per_sec"`
	// WarmSpeedup is warm/cold alerts-per-sec from the same run; the
	// acceptance floor is 5×.
	WarmSpeedup float64 `json:"warm_speedup"`

	// Coalescing burst: identical concurrent alerts share one flight.
	BurstCallers  int    `json:"burst_callers"`
	BurstUpstream uint64 `json:"burst_upstream_requests"`
	BurstShared   uint64 `json:"burst_coalesced_or_cached"`

	// Hedged tail against a straggling endpoint, same workload with
	// hedging off then on.
	HedgeCalls    int     `json:"hedge_calls"`
	BaselineP50MS float64 `json:"baseline_p50_ms"`
	BaselineP99MS float64 `json:"baseline_p99_ms"`
	HedgedP50MS   float64 `json:"hedged_p50_ms"`
	HedgedP99MS   float64 `json:"hedged_p99_ms"`
	HedgeAttempts uint64  `json:"hedge_attempts"`
	HedgeWins     uint64  `json:"hedge_wins"`

	// Saturation drill: the full pipeline against a slow endpoint with a
	// tiny admission budget. Every case must carry a verdict.
	SatCases            int     `json:"sat_cases"`
	SatCasesWithVerdict int     `json:"sat_cases_with_verdict"`
	SatDropped          int     `json:"sat_dropped"`
	SatSeconds          float64 `json:"sat_seconds"`
	SatCasesPerSec      float64 `json:"sat_cases_per_sec"`
	SatLive             uint64  `json:"sat_live"`
	SatCached           uint64  `json:"sat_cached"`
	SatShed             uint64  `json:"sat_shed"`
	SatShedRate         float64 `json:"sat_shed_rate"`
	GovernorTransitions int     `json:"governor_transitions"`

	// Audit of the drill: issued mitigations vs complete prov chains.
	MitigationsIssued int `json:"mitigations_issued"`
	ChainsComplete    int `json:"chains_complete"`
	ChainsIncomplete  int `json:"chains_incomplete"`

	Series []obs.SeriesSnapshot `json:"llm_series"`
}

// RunLLMBench measures the LLM serving layer.
func RunLLMBench(opts LLMOptions) (*LLMBenchResult, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	const model = "chatgpt-4o"
	res := &LLMBenchResult{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Model:      model,
		Workers:    8,
		Smoke:      opts.Smoke,
	}
	distinct, burst, hedgeN := 80, 32, 100
	if opts.Smoke {
		distinct, burst, hedgeN = 16, 8, 24
	}

	mixed, err := dataset.GenerateMixed(dataset.MixedConfig{
		BenignConfig:       dataset.BenignConfig{Fleet: 10, Seed: opts.Seed},
		InstancesPerAttack: 1,
		BenignBetween:      2,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: llm dataset: %w", err)
	}
	base := windowOfKind(mixed, ue.AttackBTSDoS)
	if len(base) == 0 {
		return nil, fmt.Errorf("bench: llm dataset has no attack window")
	}

	if err := res.runThroughput(base, model, distinct); err != nil {
		return nil, err
	}
	if err := res.runCoalesce(base, model, burst); err != nil {
		return nil, err
	}
	if err := res.runHedge(base, model, hedgeN); err != nil {
		return nil, err
	}
	if err := res.runSaturationDrill(opts); err != nil {
		return nil, err
	}

	for _, s := range obs.Default.Snapshot() {
		if strings.HasPrefix(s.Name, "xsec_llm_") {
			res.Series = append(res.Series, s)
		}
	}
	return res, nil
}

// windowOfKind extracts the telemetry of one attack event.
func windowOfKind(l *dataset.Labeled, kind ue.AttackKind) mobiflow.Trace {
	var w mobiflow.Trace
	for i, r := range l.Trace {
		if l.AttackOf[i] == int(kind) {
			w = append(w, r)
		}
	}
	return w
}

// variantWindows derives n distinct windows from one attack pattern by
// marking a different set of its records as radio retransmissions (the
// bits of i) — each renders a distinct prompt (distinct cache key) with
// the same finding, the shape of a volumetric attack producing a stream
// of near-identical alerts. Shifting sequence numbers or identifiers
// would not do: the canonical prompt carries neither.
func variantWindows(base mobiflow.Trace, n int) []mobiflow.Trace {
	out := make([]mobiflow.Trace, n)
	for i := range out {
		w := make(mobiflow.Trace, len(base))
		copy(w, base)
		for j := 0; i>>j > 0; j++ { // n ≤ 80: seven records of a flood's dozens
			if i>>j&1 == 1 {
				w[j].Retransmission = !w[j].Retransmission
			}
		}
		out[i] = w
	}
	return out
}

// fanout pushes every window through call with a bounded worker pool and
// returns the wall-clock time.
func fanout(workers int, windows []mobiflow.Trace, call func(mobiflow.Trace) error) (time.Duration, error) {
	jobs := make(chan mobiflow.Trace)
	errs := make(chan error, len(windows))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for win := range jobs {
				if err := call(win); err != nil {
					errs <- err
				}
			}
		}()
	}
	for _, win := range windows {
		jobs <- win
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errs:
		return elapsed, err
	default:
		return elapsed, nil
	}
}

// runThroughput measures cold vs warm cache alerts/sec over the same
// distinct-window set against a latency-modeled endpoint.
func (r *LLMBenchResult) runThroughput(base mobiflow.Trace, model string, distinct int) error {
	srv := llm.NewServer()
	srv.Latency = 5 * time.Millisecond // modeled remote inference time
	addr, shutdown, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer shutdown()

	svc := llm.NewService(llm.NewClient("http://"+addr, model), llm.ServingOptions{
		MaxInflight: 16,
		AdmitWait:   5 * time.Second,  // throughput phase must not shed
		HedgeDelay:  10 * time.Second, // or hedge
	})
	defer svc.Close()
	windows := variantWindows(base, distinct)
	analyze := func(w mobiflow.Trace) error {
		a, err := svc.AnalyzeWindow(context.Background(), w)
		if err != nil {
			return err
		}
		if a == nil {
			return fmt.Errorf("bench: nil analysis")
		}
		return nil
	}

	cold, err := fanout(r.Workers, windows, analyze)
	if err != nil {
		return fmt.Errorf("bench: llm cold phase: %w", err)
	}
	warm, err := fanout(r.Workers, windows, analyze)
	if err != nil {
		return fmt.Errorf("bench: llm warm phase: %w", err)
	}
	r.ColdAlerts, r.WarmAlerts = distinct, distinct
	r.ColdSeconds = cold.Seconds()
	r.WarmSeconds = warm.Seconds()
	r.ColdAlertsPerSec = float64(distinct) / cold.Seconds()
	r.WarmAlertsPerSec = float64(distinct) / warm.Seconds()
	if r.ColdAlertsPerSec > 0 {
		r.WarmSpeedup = r.WarmAlertsPerSec / r.ColdAlertsPerSec
	}
	return nil
}

// runCoalesce fires an identical concurrent burst and counts how many
// upstream calls survive the single-flight layer.
func (r *LLMBenchResult) runCoalesce(base mobiflow.Trace, model string, burst int) error {
	srv := llm.NewServer()
	srv.Latency = 10 * time.Millisecond // hold the flight open for followers
	addr, shutdown, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer shutdown()

	svc := llm.NewService(llm.NewClient("http://"+addr, model), llm.ServingOptions{
		HedgeDelay: 10 * time.Second,
	})
	defer svc.Close()

	var wg sync.WaitGroup
	var failed atomic.Uint64
	wg.Add(burst)
	for i := 0; i < burst; i++ {
		go func() {
			defer wg.Done()
			if _, err := svc.AnalyzeWindow(context.Background(), base); err != nil {
				failed.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("bench: llm coalesce phase: %d of %d callers failed", n, burst)
	}
	r.BurstCallers = burst
	r.BurstUpstream = srv.Requests()
	r.BurstShared = svc.Stats().Coalesced.Load() + svc.Stats().CacheHits.Load()
	return nil
}

// stragglerEndpoint serves the expert rule base with a bimodal latency:
// most requests are fast, every strideth straggles — the tail shape
// hedged retries exist to cut.
func stragglerEndpoint(model string, fast, slow time.Duration, stride int) (string, func() error, error) {
	profile := llm.ChatGPT4o
	for _, m := range llm.DefaultModels {
		if m.Name == model {
			profile = m
		}
	}
	var reqs atomic.Uint64
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		var req llm.ChatRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		findings, err := llm.AnalyzePrompt(req.Prompt)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			json.NewEncoder(w).Encode(llm.ErrorResponse{Error: err.Error()})
			return
		}
		delay := fast
		if n := reqs.Add(1); stride > 0 && n%uint64(stride) == 0 {
			delay = slow
		}
		time.Sleep(delay)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(llm.ChatResponse{Model: req.Model, Text: profile.Respond(findings)})
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: mux}
	go hs.Serve(l)
	return "http://" + l.Addr().String(), hs.Close, nil
}

// runHedge measures the latency tail with hedging off, then on, against
// the same straggling endpoint.
func (r *LLMBenchResult) runHedge(base mobiflow.Trace, model string, n int) error {
	windows := variantWindows(base, n)
	run := func(hedgeDelay time.Duration) ([]time.Duration, *llm.ServingStats, error) {
		baseURL, shutdown, err := stragglerEndpoint(model, 2*time.Millisecond, 60*time.Millisecond, 20)
		if err != nil {
			return nil, nil, err
		}
		defer shutdown()
		svc := llm.NewService(llm.NewClient(baseURL, model), llm.ServingOptions{
			CacheSize:   -1, // every call exercises the transport
			MaxInflight: 16,
			AdmitWait:   5 * time.Second,
			HedgeDelay:  hedgeDelay,
		})
		defer svc.Close()
		durs := make([]time.Duration, len(windows))
		var mu sync.Mutex
		idx := 0
		_, err = fanout(4, windows, func(w mobiflow.Trace) error {
			start := time.Now()
			a, err := svc.AnalyzeWindow(context.Background(), w)
			if err != nil {
				return err
			}
			if a.Served != llm.ServedLive {
				return fmt.Errorf("bench: hedge phase served %q", a.Served)
			}
			mu.Lock()
			durs[idx] = time.Since(start)
			idx++
			mu.Unlock()
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		stats := &llm.ServingStats{}
		stats.HedgeAttempts.Store(svc.Stats().HedgeAttempts.Load())
		stats.HedgeWins.Store(svc.Stats().HedgeWins.Load())
		return durs, stats, nil
	}

	baseline, _, err := run(-1) // hedging disabled
	if err != nil {
		return fmt.Errorf("bench: llm hedge baseline: %w", err)
	}
	hedged, stats, err := run(10 * time.Millisecond)
	if err != nil {
		return fmt.Errorf("bench: llm hedged run: %w", err)
	}
	r.HedgeCalls = n
	r.BaselineP50MS = quantileMS(baseline, 0.50)
	r.BaselineP99MS = quantileMS(baseline, 0.99)
	r.HedgedP50MS = quantileMS(hedged, 0.50)
	r.HedgedP99MS = quantileMS(hedged, 0.99)
	r.HedgeAttempts = stats.HedgeAttempts.Load()
	r.HedgeWins = stats.HedgeWins.Load()
	return nil
}

// runSaturationDrill runs the full pipeline — detection, pooled
// analyzer, enforcing mitigation — against a deliberately slow endpoint
// with a starvation-level admission budget, then audits the wreckage:
// every case must carry a verdict and every issued mitigation a complete
// provenance chain.
func (r *LLMBenchResult) runSaturationDrill(opts LLMOptions) error {
	srv := llm.NewServer()
	srv.Latency = 25 * time.Millisecond
	addr, shutdown, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer shutdown()

	epochs, sessions, bursts := 12, 40, 3
	if opts.Smoke {
		bursts = 2
	}
	fw, err := core.New(core.Options{
		Seed:         opts.Seed,
		ReportPeriod: 10 * time.Millisecond,
		TrainOpts:    mobiwatch.TrainOptions{Epochs: epochs, Seed: opts.Seed, Window: 4},
		LLMBaseURL:   "http://" + addr,
		LLMWorkers:   8,
		Mitigate:     "enforce",
		MitigateTTL:  30 * time.Second,
		LLMServing: llm.ServingOptions{
			MaxInflight:     1, // starve admission: 8 workers, 1 slot
			AdmitWait:       2 * time.Millisecond,
			HedgeDelay:      -1,
			BreakerTrip:     3,
			BreakerCooldown: 250 * time.Millisecond,
		},
	})
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			fw.Close()
		}
	}()

	benign, err := fw.CollectBenign(sessions)
	if err != nil {
		return err
	}
	if err := fw.Train(benign); err != nil {
		return err
	}
	if err := fw.DeployXApps(); err != nil {
		return err
	}

	var cases, verdicts atomic.Uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for c := range fw.Cases() {
			cases.Add(1)
			if c.Analysis != nil {
				verdicts.Add(1)
			}
		}
	}()

	victim := fw.NewUE(ue.Pixel5, 900)
	vres, err := victim.RunSession(fw.GNB)
	if err != nil {
		return err
	}
	attacker := fw.NewUE(ue.OAIUE, 901)
	attacker.Pace = func() { fw.Clock().Advance(500 * time.Microsecond) }

	start := time.Now()
	for i := 0; i < bursts; i++ {
		// Mitigation may squelch later bursts at the radio edge — that is
		// the loop working, not an error.
		_, _ = attacker.RunBTSDoS(fw.GNB, 8)
		_, _ = attacker.RunBlindDoS(fw.GNB, vres.GUTI.TMSI, 6)
		time.Sleep(400 * time.Millisecond)
	}
	time.Sleep(800 * time.Millisecond) // pipeline drain
	elapsed := time.Since(start)

	stats := fw.LLMServing().Stats()
	r.SatLive = stats.Live.Load()
	r.SatCached = stats.CacheHits.Load() + stats.Coalesced.Load()
	r.SatShed = stats.Shed.Load()
	r.GovernorTransitions = len(llm.GovernorJournal(fw.SDL))

	fw.Mitigator().Quiesce()
	fw.Prov().Flush()

	// Audit: every issued mitigation's chain must be complete end to end
	// — including chains whose verdict was served degraded.
	for _, en := range mitigate.Entries(fw.SDL) {
		issued := false
		for _, tr := range en.History {
			if tr.State == mitigate.StateIssued.String() {
				issued = true
				break
			}
		}
		if !issued {
			continue
		}
		r.MitigationsIssued++
		if en.Chain == "" {
			r.ChainsIncomplete++
			continue
		}
		id, err := prov.ParseChainID(en.Chain)
		if err != nil {
			r.ChainsIncomplete++
			continue
		}
		rec, err := prov.ReadChain(fw.SDL, id)
		if err != nil || len(rec.MissingStages()) > 0 {
			r.ChainsIncomplete++
			continue
		}
		r.ChainsComplete++
	}

	// Close the framework before reading the case tally: the pump's
	// channel closes once the pipeline drains.
	fw.Close()
	closed = true
	<-done
	r.SatCases = int(cases.Load())
	r.SatCasesWithVerdict = int(verdicts.Load())
	r.SatDropped = r.SatCases - r.SatCasesWithVerdict
	r.SatSeconds = elapsed.Seconds()
	if elapsed > 0 {
		r.SatCasesPerSec = float64(r.SatCases) / elapsed.Seconds()
	}
	total := r.SatLive + r.SatCached + r.SatShed
	if total > 0 {
		r.SatShedRate = float64(r.SatShed) / float64(total)
	}
	return nil
}

// quantileMS returns the q-quantile of the samples in milliseconds.
func quantileMS(durs []time.Duration, q float64) float64 {
	if len(durs) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// JSON renders the baseline for BENCH_llm.json.
func (r *LLMBenchResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Format renders the headline numbers.
func (r *LLMBenchResult) Format() string {
	out := fmt.Sprintf("LLM analyzer throughput baseline (model=%s, workers=%d, GOMAXPROCS=%d)\n\n",
		r.Model, r.Workers, r.GoMaxProcs)
	out += formatTable(
		[]string{"phase", "result"},
		[][]string{
			{"cold cache", fmt.Sprintf("%.0f alerts/s (%d alerts in %.2fs)", r.ColdAlertsPerSec, r.ColdAlerts, r.ColdSeconds)},
			{"warm cache", fmt.Sprintf("%.0f alerts/s (%d alerts in %.3fs)", r.WarmAlertsPerSec, r.WarmAlerts, r.WarmSeconds)},
			{"warm speedup", fmt.Sprintf("%.1fx", r.WarmSpeedup)},
			{"coalesced burst", fmt.Sprintf("%d callers -> %d upstream call(s), %d shared", r.BurstCallers, r.BurstUpstream, r.BurstShared)},
			{"tail p99 unhedged", fmt.Sprintf("%.1f ms (p50 %.1f ms)", r.BaselineP99MS, r.BaselineP50MS)},
			{"tail p99 hedged", fmt.Sprintf("%.1f ms (p50 %.1f ms, %d hedges, %d wins)", r.HedgedP99MS, r.HedgedP50MS, r.HedgeAttempts, r.HedgeWins)},
			{"saturation drill", fmt.Sprintf("%d cases, %d with verdict, %d dropped (%.0f%% shed)", r.SatCases, r.SatCasesWithVerdict, r.SatDropped, 100*r.SatShedRate)},
			{"verdict mix", fmt.Sprintf("live %d / cached %d / degraded %d, %d governor transition(s)", r.SatLive, r.SatCached, r.SatShed, r.GovernorTransitions)},
			{"audit", fmt.Sprintf("%d issued mitigation(s), %d complete chain(s), %d incomplete", r.MitigationsIssued, r.ChainsComplete, r.ChainsIncomplete)},
		})
	return out
}
