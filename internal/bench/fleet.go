package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/6g-xsec/xsec/internal/fed"
	"github.com/6g-xsec/xsec/internal/obs/fleet"
)

// This file produces the fleet observability baseline (BENCH_fleet.json,
// `xsec-bench -fleet`): what the SMO-side plane costs and how fast it
// reacts — federation scrape round-trips, cross-instance trace-stitch
// latency, and the wall-clock from killing an instance (no Leave, no
// drain) to the failure detector auto-evicting it from the ring.

// FleetOptions configures the fleet benchmark.
type FleetOptions struct {
	// Seed drives dataset generation and training.
	Seed int64
}

// fleetInstances is the drill's federation size.
const fleetInstances = 4

// FleetResult is the machine-readable baseline for BENCH_fleet.json.
type FleetResult struct {
	GoMaxProcs int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	Instances  int `json:"instances"`

	// Scrape cost: one full federation round (request fan-out, snapshot
	// assembly on every instance, bus transit, merge), in seconds.
	ScrapeRounds int     `json:"scrape_rounds"`
	ScrapeP50    float64 `json:"scrape_p50_seconds"`
	ScrapeMax    float64 `json:"scrape_max_seconds"`

	// Trace stitching over the drill's mid-attack migration.
	StitchSeconds  float64 `json:"stitch_seconds"`
	StitchedTraces int     `json:"stitched_traces"`
	TraceSegments  int     `json:"trace_segments"`
	TraceSpans     int     `json:"trace_spans"`
	TraceComplete  bool    `json:"trace_complete"`

	// Failure detection: crash (no coordinator notification) to
	// the coordinator's ring no longer holding the instance, against
	// the detector's dead-after silence (the floor of that wait).
	KillToEvictSeconds float64 `json:"kill_to_evict_seconds"`
	DeadAfterSeconds   float64 `json:"dead_after_seconds"`
	EvictedFromRing    bool    `json:"evicted_from_ring"`

	// Merged surface size after the drill.
	MergedSeries int `json:"merged_series"`
	FiringSLOs   int `json:"firing_slos"`

	Note string `json:"note"`
}

// JSON renders the baseline.
func (r *FleetResult) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// Format renders the human-readable summary.
func (r *FleetResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fleet observability plane (%d instances, GOMAXPROCS=%d)\n\n", r.Instances, r.GoMaxProcs)
	fmt.Fprintf(&b, "  federation scrape   p50 %s, max %s over %d rounds\n",
		fleetDur(r.ScrapeP50), fleetDur(r.ScrapeMax), r.ScrapeRounds)
	fmt.Fprintf(&b, "  trace stitch        %s for %d traces (migrated UE: %d segments, %d spans, complete=%v)\n",
		fleetDur(r.StitchSeconds), r.StitchedTraces, r.TraceSegments, r.TraceSpans, r.TraceComplete)
	fmt.Fprintf(&b, "  kill -> auto-evict  %s (dead-after %s, ring updated=%v)\n",
		fleetDur(r.KillToEvictSeconds), fleetDur(r.DeadAfterSeconds), r.EvictedFromRing)
	fmt.Fprintf(&b, "  merged exposition   %d series, %d SLOs firing\n", r.MergedSeries, r.FiringSLOs)
	return b.String()
}

func fleetDur(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(10 * time.Microsecond).String()
}

// RunFleetBench runs the federation drill and distills its baseline. It
// fails with the drill's verdict (fed.DrillResult.Err), so a CI run of
// it asserts the handover, the stitched trace, the eviction and the SLOs.
func RunFleetBench(opts FleetOptions) (*FleetResult, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	env, err := BuildEnv(Quick(opts.Seed))
	if err != nil {
		return nil, err
	}
	drill, err := fed.RunDrill(fed.DrillOptions{
		Instances: fleetInstances,
		Seed:      opts.Seed,
		Models:    env.Models,
		Mixed:     env.Mixed,
	})
	if err != nil {
		return nil, err
	}
	if err := drill.Err(); err != nil {
		return nil, fmt.Errorf("bench: federation drill failed: %w", err)
	}
	res := &FleetResult{
		GoMaxProcs:         runtime.GOMAXPROCS(0),
		NumCPU:             runtime.NumCPU(),
		Instances:          drill.Instances,
		ScrapeRounds:       len(drill.ScrapeSeconds),
		StitchSeconds:      drill.StitchSeconds,
		StitchedTraces:     drill.StitchedTraces,
		TraceSegments:      drill.TraceSegments,
		TraceSpans:         drill.TraceSpans,
		TraceComplete:      drill.TraceComplete,
		KillToEvictSeconds: drill.KillToEvictSecs,
		DeadAfterSeconds:   fleet.DeadAfter.Seconds(),
		EvictedFromRing:    drill.EvictedFromRing,
		MergedSeries:       drill.MergedSeries,
		FiringSLOs:         drill.FiringSLOs,
		Note: "scrape = full federation round-trip; kill_to_evict measured from Crash " +
			"(no coordinator notification) to the coordinator's ring at a later epoch without the victim",
	}
	if n := len(drill.ScrapeSeconds); n > 0 { // sorted by the drill
		res.ScrapeP50 = drill.ScrapeSeconds[n/2]
		res.ScrapeMax = drill.ScrapeSeconds[n-1]
	}
	return res, nil
}
