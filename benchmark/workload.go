package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/6g-xsec/xsec/internal/analyzer"
	"github.com/6g-xsec/xsec/internal/core"
	"github.com/6g-xsec/xsec/internal/llm"
	"github.com/6g-xsec/xsec/internal/mitigate"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/prov"
)

// workload is one named traffic mix. Names are fixed by BENCHMARK.json.
type workload struct {
	Name string
	Why  string
	// Closed selects the closed-loop telemetry replay; otherwise the
	// open-loop simulator schedule runs at cfg.SessionRate + AttackRate.
	Closed     bool
	AttackRate float64 // attack episodes per second
	// ExpertLatency, when set, puts an llm.NewServer with that service
	// time behind LLMBaseURL in place of the built-in expert.
	ExpertLatency time.Duration
	Mitigate      string
	// What the correctness gate holds this workload to, besides what it
	// holds every workload to: Conserves, that every record shipped
	// reached MobiWatch; Floors, the recall floors and a complete
	// provenance chain behind every acknowledged mitigation.
	Conserves, Floors bool
}

var workloads = []workload{
	{
		Name:   "benign_capacity",
		Why:    "Closed loop, 2048 benign records outstanding: saturates gnb, e2ap, ric, sdl, feature, nn, mobiwatch and prov; the analyzer and LLM see only false-positive windows.",
		Closed: true, Conserves: true,
	},
	{
		Name:       "attack_mix",
		Why:        "Open loop at a few percent of capacity, Poisson 100 sessions/s + 20 attack episodes/s, enforcing: latency is holds and round trips, not CPU; the paper's detect, explain, mitigate loop end to end.",
		AttackRate: 20,
		Mitigate:   "enforce",
		Conserves:  true, Floors: true,
	},
	{
		Name:          "alert_storm",
		Why:           "Open loop, 40 attack episodes/s against a 50 ms expert: alerts outrun the analyzer pool, so llm.Service, the alert and case queues and mitigate suppression work in overload while ingest idles.",
		AttackRate:    40,
		ExpertLatency: 50 * time.Millisecond,
		Mitigate:      "enforce",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// mitigateTTL keeps reversible mitigations short, so one verdict does
// not harden the RAN for the rest of the run.
const mitigateTTL = time.Second

// received is one case off fw.Cases() with its arrival time.
type received struct {
	Case *analyzer.Case
	At   time.Time
}

// collector is the single consumer of fw.Cases().
type collector struct {
	n     atomic.Uint64
	mu    sync.Mutex
	cases []received
}

func (c *collector) run(ch <-chan *analyzer.Case) {
	for cs := range ch {
		at := time.Now()
		c.mu.Lock()
		c.cases = append(c.cases, received{cs, at})
		c.mu.Unlock()
		c.n.Add(1)
	}
}

// mark is the state of every counter at one instant; metrics are
// differences of two marks around the measured interval.
type mark struct {
	At      time.Time
	Obs     []obs.SeriesSnapshot // the process-wide registry
	Records uint64               // WatchStats.RecordsSeen of this framework
	Cases   uint64               // cases received off fw.Cases()
	CPU     time.Duration
	Mallocs uint64
	GCPause time.Duration
}

func takeMark(fw *core.Framework, col *collector) mark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m := mark{
		At:      time.Now(),
		Obs:     obs.Default.Snapshot(),
		Records: fw.WatchStats().RecordsSeen.Load(),
		Cases:   col.n.Load(),
		CPU:     cpuTime(),
		Mallocs: ms.Mallocs,
		GCPause: time.Duration(ms.PauseTotalNs),
	}
	return m
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and returns the bytes still reachable.
// It is only called outside the measured interval.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// sampled holds the maxima the 10 Hz sampler saw during the interval,
// MobiWatch's record counter at every tick, and the mitigation audit it
// ran alongside.
type sampled struct {
	HeapInuse  uint64
	Goroutines int
	CaseQueue  int
	Ticks      []recordsAt
	audit      auditor
}

// recordsAt is WatchStats.RecordsSeen at one instant.
type recordsAt struct {
	At      time.Time
	Records uint64
}

// auditor checks, soon after each mitigation is acknowledged, that its
// provenance chain is complete. It cannot wait for the end of the run:
// the ledger retains 1024 chains, a few seconds' worth.
type auditor struct {
	seen     map[uint64]bool
	acked    float64 // xsec_mitigate_actions_total{outcome="acked"} at the last audit
	Acked    int
	Complete int
}

func (a *auditor) tick(fw *core.Framework) {
	if fw.Mitigator() == nil {
		return
	}
	acked, _, _ := pick(obs.Default.Snapshot(), "xsec_mitigate_actions_total", "outcome", "acked")
	if acked == a.acked {
		return
	}
	a.acked = acked
	if a.seen == nil {
		a.seen = make(map[uint64]bool)
	}
	fw.Prov().Flush()
	for _, en := range mitigate.Entries(fw.SDL) {
		if a.seen[en.ID] {
			continue
		}
		if _, ok := transitionAt(en, mitigate.StateAcked); !ok {
			continue
		}
		a.seen[en.ID] = true
		a.Acked++
		id, err := prov.ParseChainID(en.Chain)
		if err != nil {
			continue
		}
		if rec, ok := fw.Prov().Chain(id); ok && len(rec.MissingStages()) == 0 {
			a.Complete++
		}
	}
}

// sample runs until stop closes, then reports on done.
func sample(fw *core.Framework, stop <-chan struct{}, done chan<- sampled) {
	var s sampled
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			s.audit.tick(fw)
			done <- s
			return
		case <-ticker.C:
			s.Ticks = append(s.Ticks, recordsAt{time.Now(), fw.WatchStats().RecordsSeen.Load()})
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > s.HeapInuse {
				s.HeapInuse = ms.HeapInuse
			}
			if n := runtime.NumGoroutine(); n > s.Goroutines {
				s.Goroutines = n
			}
			if n := len(fw.Cases()); n > s.CaseQueue {
				s.CaseQueue = n
			}
			s.audit.tick(fw)
		}
	}
}

// drain waits for the pipeline to go quiet instead of sleeping: it polls
// the stage counters until they read the same three times, 50 ms apart,
// or until limit, and then lets in-flight mitigations settle. shipped
// reports how many records have entered the pipeline; the pipeline is not
// quiet while MobiWatch has seen fewer.
func drain(fw *core.Framework, col *collector, shipped func() uint64, limit time.Duration) time.Duration {
	start := time.Now()
	var last [4]uint64
	for stable := 0; stable < 3 && time.Since(start) < limit; {
		time.Sleep(50 * time.Millisecond)
		cur := [4]uint64{
			fw.WatchStats().RecordsSeen.Load(),
			fw.WatchStats().AlertsRaised.Load(),
			fw.AnalyzerStats().Processed.Load(),
			col.n.Load(),
		}
		if cur == last && cur[0] >= shipped() {
			stable++
		} else {
			stable = 0
		}
		last = cur
	}
	// Only once no case is in flight: Quiesce may not overlap Submit.
	if m := fw.Mitigator(); m != nil {
		m.Quiesce()
	}
	return time.Since(start)
}

// run is everything one workload produced, before metrics are derived.
type run struct {
	W      workload
	Cfg    config
	Fx     *fixture
	A, B   mark // around the measured interval
	End    mark // after the drain
	Smp    sampled
	DrainS float64

	Heap0, HeapEnd uint64 // live heap before the warm-up and after the drain
	Shipped        uint64 // records that entered the pipeline, warm-up and drain included
	Cases          []received
	Entries        []mitigate.Entry
	SDLKeys        int
	ProvDropped    uint64 // events this framework's ledger refused, warm-up and drain included

	Node   string // the gNB's E2 node ID, a label of its series
	Closed *closedGen
	Open   *openGen
	Tracer *tracer
	Probes map[string]float64
}

func runWorkload(cfg config, w workload, fx *fixture, tr *tracer) (*run, error) {
	opts := core.Options{
		Seed:         cfg.Seed,
		ReportPeriod: reportPeriod,
		Mitigate:     w.Mitigate,
	}
	if w.Mitigate != "" {
		opts.MitigateTTL = mitigateTTL
	}
	if w.ExpertLatency > 0 {
		srv := llm.NewServer()
		srv.Latency = w.ExpertLatency
		addr, shutdown, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer shutdown()
		opts.LLMBaseURL = "http://" + addr
	}
	fw, err := newFramework(opts)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			fw.Close()
		}
	}()
	fw.Models = fx.Models
	if err := fw.DeployXApps(); err != nil {
		return nil, err
	}

	r := &run{W: w, Cfg: cfg, Fx: fx, Tracer: tr, Node: fw.GNB.NodeID()}
	col := &collector{}
	colDone := make(chan struct{})
	go func() {
		defer close(colDone)
		col.run(fw.Cases())
	}()

	measure := time.Duration(cfg.Seconds * float64(time.Second))
	genDone := make(chan struct{})
	stopGen := make(chan struct{})
	var shipped func() uint64
	var sched []arrival
	if w.Closed {
		r.Closed = &closedGen{fw: fw, rep: newReplayer(fx.Replay), tr: tr}
		shipped = r.Closed.sent.Load
	} else {
		if r.Open, err = newOpenGen(fw, tr); err != nil {
			return nil, err
		}
		if sched, err = schedule(cfg.Seed, cfg.SessionRate, w.AttackRate, cfg.Warmup, measure); err != nil {
			return nil, err
		}
		// The registry is process-wide: count from where this framework starts.
		before := gnbShipped(fw)
		shipped = func() uint64 { return gnbShipped(fw) - before }
	}
	r.Heap0 = liveHeap()

	start := time.Now()
	go func() {
		defer close(genDone)
		if w.Closed {
			r.Closed.run(stopGen)
		} else {
			r.Open.run(start, sched, cfg.Warmup, cfg.Warmup+measure)
		}
	}()

	sleepUntil(start.Add(cfg.Warmup))
	r.A = takeMark(fw, col)
	stopSample := make(chan struct{})
	smp := make(chan sampled, 1)
	go sample(fw, stopSample, smp)
	sleepUntil(start.Add(cfg.Warmup + measure))
	r.B = takeMark(fw, col)
	close(stopGen)
	<-genDone

	r.DrainS = drain(fw, col, shipped, cfg.DrainCap).Seconds()
	close(stopSample)
	r.Smp = <-smp
	r.End = takeMark(fw, col)
	r.Shipped = shipped()
	r.HeapEnd = liveHeap()
	r.Entries = mitigate.Entries(fw.SDL)
	r.SDLKeys = fw.SDL.Len("mobiflow")
	r.ProvDropped = fw.Prov().Dropped()

	col.mu.Lock()
	r.Cases = append([]received(nil), col.cases...)
	col.mu.Unlock()
	if tr != nil {
		r.Probes = probe(tr, r, fw)
	}

	fw.Close()
	closed = true
	<-colDone
	return r, nil
}

// transitionAt finds when a journal entry entered a lifecycle state.
func transitionAt(en mitigate.Entry, s mitigate.State) (time.Time, bool) {
	for _, tr := range en.History {
		if tr.State == s.String() {
			return tr.At, true
		}
	}
	return time.Time{}, false
}

// pick sums the series of one family whose labels match every given
// key, value pair: the value of counters and gauges, the sum and count
// of histograms.
func pick(series []obs.SeriesSnapshot, name string, kv ...string) (value, sum float64, count uint64) {
next:
	for _, s := range series {
		if s.Name != name {
			continue
		}
		for i := 0; i+1 < len(kv); i += 2 {
			if s.Labels[kv[i]] != kv[i+1] {
				continue next
			}
		}
		value += s.Value
		sum += s.Sum
		count += s.Count
	}
	return value, sum, count
}

// delta is pick(b) − pick(a).
func delta(a, b []obs.SeriesSnapshot, name string, kv ...string) (value, sum float64, count uint64) {
	av, as, ac := pick(a, name, kv...)
	bv, bs, bc := pick(b, name, kv...)
	return bv - av, bs - as, bc - ac
}

// gnbShipped reads how many records the gNB agent has put on E2.
func gnbShipped(fw *core.Framework) uint64 {
	v, _, _ := pick(obs.Default.Snapshot(), "xsec_gnb_mobiflow_records_total", "node", fw.GNB.NodeID())
	return uint64(v)
}
