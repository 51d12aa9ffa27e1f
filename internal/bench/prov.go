package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/6g-xsec/xsec/internal/feature"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// This file produces the provenance baseline (BENCH_prov.json): what the
// ledger costs the MobiWatch scoring goroutine — one folded run of benign
// windows (one digest, one event) vs. a flagged window — what the writer
// sustains with nothing dropped, what retiring a chain costs at two
// resident-key counts, and the latency of reconstructing a persisted
// chain from the SDL (`xsec-bench -prov`).

// ProvBenchEntry is one measured operation.
type ProvBenchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Ops         int     `json:"ops"`
}

// ProvBenchResult is the machine-readable baseline.
type ProvBenchResult struct {
	GoMaxProcs int              `json:"gomaxprocs"`
	NumCPU     int              `json:"num_cpu"`
	WindowDim  int              `json:"window_dim"`
	Entries    []ProvBenchEntry `json:"entries"`
	// WriterEventsPerSec is the rate the ledger sustained over the
	// recording rows — producer and writer time both counted — with no
	// event dropped.
	WriterEventsPerSec float64 `json:"writer_events_per_s"`
	// Dropped counts events lost to writer backpressure. The recording
	// rows flush between buffer-sized batches, so any drop invalidates
	// the measurement and RunProvBench fails.
	Dropped uint64 `json:"dropped"`
	// Chain-reconstruction latency (SDL prefix scan + JSON decode),
	// sampled over persisted chains.
	ReconChains    int     `json:"recon_chains"`
	ReconEvents    int     `json:"recon_events_per_chain"`
	ReconP50Micros float64 `json:"recon_p50_us"`
	ReconP90Micros float64 `json:"recon_p90_us"`
	ReconP99Micros float64 `json:"recon_p99_us"`
}

const (
	// provFoldRun is the benign run length the producer folds into one
	// event: a worker flush scores 16 windows, 8 per model.
	provFoldRun = 8
	// provBatch is how many events a recording row offers between
	// flushes: half the ledger buffer, so the writer can never be overrun.
	provBatch = prov.DefaultBuffer / 2
	// provEvictChainEvents is the size of the chains the eviction rows
	// turn over: what a benign indication leaves on the shipped path
	// (emit, transport, indication, an AE run, an LSTM run) plus one.
	provEvictChainEvents = 6
)

// measureRecording times produce in provBatch-sized batches, flushing the
// ledger untimed between batches so nothing is dropped. The entry's
// ns/op is the producer's own cost; allocations are process-wide over
// the whole loop, so a writer that allocated per event would show. It
// also returns the wall time of the loop, flushes included.
func measureRecording(l *prov.Ledger, minTime time.Duration, name string, produce func()) (ProvBenchEntry, time.Duration) {
	produce() // warm up: interning, map inserts, first appends
	l.Flush()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var ops int
	var producing time.Duration
	wallStart := time.Now()
	for producing < minTime {
		start := time.Now()
		for i := 0; i < provBatch; i++ {
			produce()
		}
		producing += time.Since(start)
		ops += provBatch
		l.Flush()
	}
	wall := time.Since(wallStart)
	runtime.ReadMemStats(&after)
	return ProvBenchEntry{
		Name:        name,
		NsPerOp:     float64(producing.Nanoseconds()) / float64(ops),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(ops),
		Ops:         ops,
	}, wall
}

// RunProvBench measures the provenance ledger against realistic feature
// windows from the cached experiment environment. Smoke mode shrinks the
// measurement windows so CI can exercise every row in seconds.
func RunProvBench(cfg Config, smoke bool) (*ProvBenchResult, error) {
	env, err := BuildEnv(cfg)
	if err != nil {
		return nil, err
	}
	models := env.Models
	vecs := feature.Vectorize(env.Mixed.Trace, models.Vocab)
	wins := feature.WindowsAE(vecs, models.Window)
	if len(wins) == 0 {
		return nil, fmt.Errorf("bench: mixed trace produced no windows")
	}

	res := &ProvBenchResult{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		WindowDim:  len(wins[0]),
	}
	minTime, turnovers, samples := 200*time.Millisecond, 20000, 2000
	if smoke {
		minTime, turnovers, samples = 20*time.Millisecond, 2000, 200
	}

	// Memory-only ledger. A benign run is what the scoring goroutine pays
	// per provFoldRun windows: it digests the run's last window and sends
	// one fixed-size struct, which the writer coalesces into the chain's
	// open run — zero allocations end to end.
	ledger := prov.New(prov.Options{})
	defer ledger.Close()
	chain := prov.ChainID{Node: "gnb-001", SN: 1}
	var events int
	var wall time.Duration
	record := func(name string, produce func()) {
		e, w := measureRecording(ledger, minTime, name, produce)
		res.Entries = append(res.Entries, e)
		events += e.Ops
		wall += w
	}
	i := 0
	record("record_benign_run", func() {
		w := wins[i%len(wins)]
		i += provFoldRun
		ledger.Record(prov.Event{
			Chain:     chain,
			Kind:      prov.KindWindow,
			SeqFirst:  uint64(i),
			SeqLast:   uint64(i + provFoldRun + models.Window),
			Count:     provFoldRun,
			Digest:    prov.DigestFloats(w),
			Model:     "autoencoder",
			Score:     0.001,
			Threshold: models.AEThreshold,
		})
	})

	// Flagged windows append (no coalescing) and fan out across chains,
	// the worst case for the writer's chain map and its eviction ring.
	j := 0
	record("record_flagged_window", func() {
		w := wins[j%len(wins)]
		j++
		ledger.Record(prov.Event{
			Chain:     prov.ChainID{Node: "gnb-001", SN: uint64(j)},
			Kind:      prov.KindWindow,
			SeqFirst:  uint64(j),
			SeqLast:   uint64(j + models.Window),
			Digest:    prov.DigestFloats(w),
			Model:     "autoencoder",
			Score:     9.9,
			Threshold: models.AEThreshold,
			Flagged:   true,
		})
	})
	res.WriterEventsPerSec = float64(events) / wall.Seconds()
	res.Dropped = ledger.Dropped()

	// The digests are folded into a value that is used, or the compiler
	// drops the mixing and the row times an empty loop.
	k, sink := 0, prov.NewDigest()
	digest := measure(minTime, func() {
		sink ^= prov.DigestFloats(wins[k%len(wins)])
		k++
	})
	if sink == 0 {
		return nil, fmt.Errorf("bench: window digests cancelled to zero")
	}
	res.Entries = append(res.Entries, ProvBenchEntry{Name: "digest_window_only", NsPerOp: digest.NsPerOp, Ops: digest.Ops})

	for _, resident := range []int{1 << 10, 16 << 10} {
		e, dropped := measureEviction(resident, turnovers)
		res.Entries = append(res.Entries, e)
		res.Dropped += dropped
	}
	if res.Dropped > 0 {
		return nil, fmt.Errorf("bench: %d provenance events dropped; the recording rows are not valid", res.Dropped)
	}

	// Chain reconstruction: persist realistic chains to an SDL, then
	// sample ReadChain.
	const chains, eventsPerChain = 64, 8
	store := sdl.New()
	persisted := prov.New(prov.Options{Store: store})
	base := time.Date(2024, 6, 1, 0, 0, 0, 0, time.UTC)
	for c := 1; c <= chains; c++ {
		id := prov.ChainID{Node: "gnb-001", SN: uint64(c)}
		for e := 0; e < eventsPerChain; e++ {
			persisted.Record(prov.Event{
				Chain:    id,
				Kind:     prov.Kind(e % 7),
				At:       base.Add(time.Duration(e) * time.Millisecond),
				SeqFirst: uint64(e * 10),
				SeqLast:  uint64(e*10 + 9),
				Digest:   prov.DigestFloats(wins[e%len(wins)]),
				Model:    "autoencoder",
				Score:    0.5,
				Flagged:  e%7 == 3,
				Label:    "routed",
			})
		}
	}
	persisted.Flush()
	persisted.Close()

	durs := make([]float64, 0, samples)
	for s := 0; s < samples; s++ {
		id := prov.ChainID{Node: "gnb-001", SN: uint64(s%chains + 1)}
		start := time.Now()
		if _, err := prov.ReadChain(store, id); err != nil {
			return nil, err
		}
		durs = append(durs, float64(time.Since(start).Nanoseconds())/1e3)
	}
	sort.Float64s(durs)
	quant := func(q float64) float64 {
		idx := int(q * float64(len(durs)-1))
		return durs[idx]
	}
	res.ReconChains = chains
	res.ReconEvents = eventsPerChain
	res.ReconP50Micros = quant(0.50)
	res.ReconP90Micros = quant(0.90)
	res.ReconP99Micros = quant(0.99)
	return res, nil
}

// measureEviction turns chains over in an SDL-backed ledger that is full
// at `resident` persisted keys: every new chain of provEvictChainEvents
// events retires the oldest one. ns/op is wall time per turned-over chain
// — its appends and persists plus the eviction they force — so the row
// pair shows whether retiring a chain scales with what else is resident.
// It also returns how many events the ledger dropped (none, as it
// flushes between batches).
func measureEviction(resident, turnovers int) (ProvBenchEntry, uint64) {
	l := prov.New(prov.Options{Store: sdl.New(), MaxChains: resident / provEvictChainEvents})
	defer l.Close()
	var sn uint64
	turnOver := func(chains int) {
		for c := 0; c < chains; c++ {
			sn++
			id := prov.ChainID{Node: "gnb-001", SN: sn}
			for e := 0; e < provEvictChainEvents; e++ {
				l.Record(prov.Event{Chain: id, Kind: prov.KindWindow, Model: "autoencoder", Score: float64(e), Flagged: true})
			}
			if sn%(provBatch/provEvictChainEvents) == 0 {
				l.Flush()
			}
		}
		l.Flush()
	}
	turnOver(resident / provEvictChainEvents) // fill to the retention bound
	start := time.Now()
	turnOver(turnovers)
	elapsed := time.Since(start)
	return ProvBenchEntry{
		Name:    fmt.Sprintf("evict_ns_per_chain_%dk", resident>>10),
		NsPerOp: float64(elapsed.Nanoseconds()) / float64(turnovers),
		Ops:     turnovers,
	}, l.Dropped()
}

// JSON renders the baseline for BENCH_prov.json.
func (r *ProvBenchResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Format renders the baseline as an aligned table.
func (r *ProvBenchResult) Format() string {
	rows := make([][]string, 0, len(r.Entries)+3)
	for _, e := range r.Entries {
		rows = append(rows, []string{e.Name, fmt.Sprintf("%.0f", e.NsPerOp),
			fmt.Sprintf("%.2f", e.AllocsPerOp), fmt.Sprintf("%d", e.Ops)})
	}
	out := fmt.Sprintf("Provenance ledger baseline (GOMAXPROCS=%d, window dim %d)\n\n",
		r.GoMaxProcs, r.WindowDim)
	out += formatTable([]string{"op", "ns/op", "allocs/op", "ops"}, rows)
	out += fmt.Sprintf("\nchain reconstruction (%d chains × %d events): p50 %.1f µs, p90 %.1f µs, p99 %.1f µs\n",
		r.ReconChains, r.ReconEvents, r.ReconP50Micros, r.ReconP90Micros, r.ReconP99Micros)
	out += fmt.Sprintf("ledger sustained %.0f events/s with %d dropped\n", r.WriterEventsPerSec, r.Dropped)
	return out
}
