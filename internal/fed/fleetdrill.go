package fed

import (
	"fmt"
	"sort"
	"time"

	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/obs/fleet"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// FleetDrillOptions configure the fleet observability drill.
type FleetDrillOptions struct {
	// Instances is the federation size (default 4).
	Instances int
	// Seed drives dataset generation and training (default 1).
	Seed int64
	// Models and Mixed, when set, skip the drill's own dataset
	// generation and training (benches and tests reuse a cached
	// environment).
	Models *mobiwatch.Models
	Mixed  *dataset.Labeled
	// ScrapeRounds is how many timed federation scrapes to run
	// (default 5).
	ScrapeRounds int
}

// The drill compresses the failure detector's timebase so a crash is
// noticed in well under a second: heartbeats every 50 ms, suspect after
// 5 missed, dead (and evicted) after 12.
const (
	drillHeartbeatPeriod = 50 * time.Millisecond
	drillSuspectAfter    = 250 * time.Millisecond
	// DrillDeadAfter is the silence after which the drill's detector
	// declares an instance dead — the floor of kill_to_evict_seconds.
	DrillDeadAfter = 600 * time.Millisecond
	// drillEvictTimeout bounds the wait for the killed instance's
	// automatic eviction.
	drillEvictTimeout = 10 * time.Second
)

// FleetDrillResult reports what the drill observed.
type FleetDrillResult struct {
	Instances int `json:"instances"`

	// Trace stitching: a UE migrated mid-attack must yield one stitched
	// cross-instance trace with at least two segments.
	MigratedUE     uint64 `json:"migrated_ue"`
	StitchedTraces int    `json:"stitched_traces"`
	// TraceSegments/TraceSpans describe the migrated UE's trace.
	TraceSegments  int  `json:"trace_segments"`
	TraceSpans     int  `json:"trace_spans"`
	TraceComplete  bool `json:"trace_complete"`
	TraceInstances int  `json:"trace_instances"`
	// StitchSeconds is how long assembling all stitched traces took.
	StitchSeconds float64 `json:"stitch_seconds"`

	// Federation scrape cost: wall-clock per full round (request out to
	// every live instance's report merged).
	ScrapeRounds  int       `json:"scrape_rounds"`
	ScrapeSeconds []float64 `json:"scrape_seconds"`

	// Failure detection: Crash(victim) to the collector's auto-eviction.
	Victim             string  `json:"victim"`
	KillToEvictSecs    float64 `json:"kill_to_evict_seconds"`
	EvictedFromRing    bool    `json:"evicted_from_ring"`
	JournalTransitions int     `json:"journal_transitions"`

	// Fleet surface at the end of the drill.
	MergedSeries int                    `json:"merged_series"`
	Health       []fleet.InstanceHealth `json:"health"`
	SLOs         []fleet.SLOStatus      `json:"slos"`
	FiringSLOs   int                    `json:"firing_slos"`

	// Store keeps the SMO store readable after teardown (journal, prov).
	Store *sdl.Store `json:"-"`
}

// RunFleetDrill exercises the whole fleet observability plane in one
// pass: it stands up a federation with an attached collector, replays a
// BTS-DoS flood with a mid-attack migration (producing a stitched
// cross-instance trace), times federation scrape rounds, then crashes
// an instance and measures how long the failure detector takes to
// auto-evict it from the ring.
func RunFleetDrill(opts FleetDrillOptions) (*FleetDrillResult, error) {
	if opts.Instances < 2 {
		opts.Instances = 4
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.ScrapeRounds == 0 {
		opts.ScrapeRounds = 5
	}
	models, h, err := drillEnv(opts.Models, opts.Mixed, opts.Seed)
	if err != nil {
		return nil, err
	}

	cl, err := StartCluster(ClusterOptions{
		Instances:       opts.Instances,
		Models:          models,
		InstallLedger:   true,
		HeartbeatPeriod: drillHeartbeatPeriod,
		Fleet: &fleet.CollectorOptions{
			SuspectAfter: drillSuspectAfter,
			DeadAfter:    DrillDeadAfter,
			ScrapePeriod: 500 * time.Millisecond,
			SweepPeriod:  drillHeartbeatPeriod / 2,
		},
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	col := cl.Fleet()

	res := &FleetDrillResult{Instances: opts.Instances, Store: cl.Store}

	// Wait for the first heartbeats so the detector knows the fleet.
	if err := waitFor(5*time.Second, func() bool { return col.Alive() >= opts.Instances }); err != nil {
		return nil, fmt.Errorf("fed: collector never saw all %d instances: %w", opts.Instances, err)
	}

	if err := h.run(cl); err != nil {
		return nil, err
	}
	res.MigratedUE = h.ues[0]
	cl.FlushProv()

	// Timed federation scrapes. Each round waits for every live
	// instance's report, so the measurement covers request fan-out,
	// snapshot assembly, bus transit, and merge.
	for n := 0; n < opts.ScrapeRounds; n++ {
		start := time.Now()
		done := col.ScrapeOnce()
		if done == nil {
			return nil, fmt.Errorf("fed: scrape round %d refused", n)
		}
		select {
		case <-done:
			res.ScrapeSeconds = append(res.ScrapeSeconds, time.Since(start).Seconds())
		case <-time.After(5 * time.Second):
			return nil, fmt.Errorf("fed: scrape round %d never completed", n)
		}
	}
	res.ScrapeRounds = len(res.ScrapeSeconds)

	// Trace stitching: the migrated UE's spans from both instances must
	// assemble into one cross-instance trace.
	stitchStart := time.Now()
	traces := col.Traces()
	res.StitchSeconds = time.Since(stitchStart).Seconds()
	res.StitchedTraces = len(traces)
	for _, tr := range traces {
		if tr.UEID != res.MigratedUE {
			continue
		}
		res.TraceSegments = len(tr.Segments)
		res.TraceComplete = tr.Complete
		insts := map[string]bool{}
		for _, seg := range tr.Segments {
			res.TraceSpans += len(seg.Spans)
			if seg.Instance != "" {
				insts[seg.Instance] = true
			}
		}
		res.TraceInstances = len(insts)
		break
	}

	// Kill drill: crash the last instance without telling the
	// coordinator; only the failure detector can notice.
	victim := fmt.Sprintf("ric-%d", opts.Instances-1)
	res.Victim = victim
	res.KillToEvictSecs, res.EvictedFromRing, err = crashAndAwaitEviction(cl, victim)
	if err != nil {
		return nil, err
	}
	res.JournalTransitions = len(fleet.ReadJournal(cl.Store))

	res.MergedSeries = len(col.MergedSeries())
	res.Health = col.Health()
	res.SLOs = col.SLO()
	for _, s := range res.SLOs {
		if s.Firing {
			res.FiringSLOs++
		}
	}
	sort.Float64s(res.ScrapeSeconds)
	return res, nil
}

// crashAndAwaitEviction crashes victim without telling the coordinator
// and waits for what the drill claims to time: the coordinator's ring
// at a later epoch without the victim. The collector marks an instance
// dead, journals that, and only then calls Evict, so its health view
// turns dead before the ring changes; the clock stops at the ring. It
// reports the seconds waited and whether the ring was updated within
// drillEvictTimeout.
func crashAndAwaitEviction(cl *Cluster, victim string) (secs float64, evicted bool, err error) {
	epochBefore := cl.Coordinator.Ring().Epoch
	killedAt := time.Now()
	if err := cl.Crash(victim); err != nil {
		return 0, false, err
	}
	evicted = waitFor(drillEvictTimeout, func() bool {
		ring := cl.Coordinator.Ring()
		return ring.Epoch > epochBefore && !ring.Contains(victim)
	}) == nil
	return time.Since(killedAt).Seconds(), evicted, nil
}

// waitFor polls cond until true or timeout.
func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("condition not met within %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
