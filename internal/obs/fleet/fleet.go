// Package fleet is the SMO-side observability plane of a federated
// 6G-XSec deployment: it turns N per-instance observability surfaces
// into one.
//
// Instances publish deadline-based heartbeats and answer periodic
// scrape requests with their obs.Snapshot plus their retained trace
// spans, all over the existing federation bus topics. The Collector —
// colocated with the federation Coordinator — merges the snapshots
// under an "instance" label, computes xsec_fleet_* rollups (aggregate
// indication rate, cross-instance detect-latency quantiles, migration
// counts), detects failed instances (suspect → dead, with the dead
// transition triggering automatic ring eviction, an SDL journal entry,
// and a prov event), evaluates declarative SLOs with multi-window
// burn-rate alerting, and stitches one UE's spans across migration
// boundaries into a single distributed trace. The merged surface is
// served at /fleet/metrics, /fleet/health, /fleet/slo, and
// /fleet/traces.
package fleet

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// Bus topics of the fleet plane. They ride the same federation bus the
// ring, policy, and migration traffic uses; the broker retains them
// like any other topic, so a collector that restarts replays the
// heartbeats it missed.
const (
	// TopicHeartbeat carries instance liveness beacons (JSON Heartbeat).
	TopicHeartbeat = "fleet-hb"
	// TopicScrape carries the collector's snapshot pull requests
	// (JSON ScrapeRequest).
	TopicScrape = "fleet-scrape"
	// TopicReport carries instance snapshot responses (JSON Report).
	TopicReport = "fleet-report"
)

// Heartbeat is one instance liveness beacon. Instances publish them at
// a fixed cadence; the collector's failure detector turns missing
// beacons into suspect → dead transitions.
type Heartbeat struct {
	// Instance is the federation identity ("ric-0").
	Instance string `json:"instance"`
	// Node is the instance's E2 node ID ("gnb-ric-0") — the prefix of
	// every trace/chain key the instance mints, which is how the
	// stitcher attributes a chain to an instance.
	Node string `json:"node"`
	// Seq increases per beacon from this instance.
	Seq uint64 `json:"seq"`
	// UnixNanos is the sender's wall clock at publish.
	UnixNanos int64 `json:"unix_nanos"`
	// Epoch is the ring epoch the instance has applied.
	Epoch int `json:"epoch"`
	// UEs and Records summarize live load (cheap gauges; the full
	// snapshot travels only on scrape).
	UEs     int    `json:"ues"`
	Records uint64 `json:"records"`
}

// Encode renders the heartbeat for the bus.
func (h Heartbeat) Encode() ([]byte, error) { return json.Marshal(h) }

// ParseHeartbeat decodes a bus heartbeat payload.
func ParseHeartbeat(data []byte) (Heartbeat, error) {
	var h Heartbeat
	if err := json.Unmarshal(data, &h); err != nil {
		return Heartbeat{}, fmt.Errorf("fleet: heartbeat: %w", err)
	}
	if h.Instance == "" {
		return Heartbeat{}, fmt.Errorf("fleet: heartbeat without instance")
	}
	return h, nil
}

// ScrapeRequest asks every instance for its snapshot. Seq identifies
// the round, so the collector can tell which reports answer which pull.
type ScrapeRequest struct {
	Seq       uint64 `json:"seq"`
	UnixNanos int64  `json:"unix_nanos"`
}

// Encode renders the request for the bus.
func (s ScrapeRequest) Encode() ([]byte, error) { return json.Marshal(s) }

// ParseScrapeRequest decodes a scrape request payload.
func ParseScrapeRequest(data []byte) (ScrapeRequest, error) {
	var s ScrapeRequest
	if err := json.Unmarshal(data, &s); err != nil {
		return ScrapeRequest{}, fmt.Errorf("fleet: scrape request: %w", err)
	}
	return s, nil
}

// Report is one instance's answer to a scrape: its per-instance metric
// snapshot plus the trace spans it retains. Series carry no "instance"
// label — the collector injects it on merge, renaming any pre-existing
// one to "exported_instance" (the Prometheus federation convention).
type Report struct {
	Instance  string               `json:"instance"`
	Node      string               `json:"node"`
	Seq       uint64               `json:"seq"` // echoes ScrapeRequest.Seq
	UnixNanos int64                `json:"unix_nanos"`
	Series    []obs.SeriesSnapshot `json:"series"`
	Spans     []obs.Span           `json:"spans,omitempty"`
}

// Encode renders the report for the bus.
func (r Report) Encode() ([]byte, error) { return json.Marshal(r) }

// ParseReport decodes a bus report payload.
func ParseReport(data []byte) (Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("fleet: report: %w", err)
	}
	if r.Instance == "" {
		return Report{}, fmt.Errorf("fleet: report without instance")
	}
	return r, nil
}

// State is an instance's position in the failure detector's machine.
type State uint8

// Failure-detector states: a heartbeat keeps an instance Alive; missing
// beacons past suspectAfter mark it Suspect, past DeadAfter Dead (and
// auto-evicted). A beacon from a Suspect or Dead instance rejoins it as
// Alive.
const (
	StateAlive State = iota
	StateSuspect
	StateDead
)

var stateNames = [...]string{"alive", "suspect", "dead"}

// String returns the journal spelling of the state.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// MarshalJSON renders the state as its name.
func (s State) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses a state name.
func (s *State) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	for i, n := range stateNames {
		if n == name {
			*s = State(i)
			return nil
		}
	}
	return fmt.Errorf("fleet: unknown state %q", name)
}

// InstanceHealth is one instance's row in /fleet/health.
type InstanceHealth struct {
	Instance      string    `json:"instance"`
	Node          string    `json:"node,omitempty"`
	State         State     `json:"state"`
	LastHeartbeat time.Time `json:"last_heartbeat"`
	HeartbeatSeq  uint64    `json:"heartbeat_seq"`
	Epoch         int       `json:"epoch"`
	UEs           int       `json:"ues"`
	Records       uint64    `json:"records"`
	// EvictedAt is set once the dead transition triggered ring eviction.
	EvictedAt time.Time `json:"evicted_at,omitempty"`
}

// Transition is one failure-detector state change, journaled to the
// SDL under JournalNamespace.
type Transition struct {
	Instance string    `json:"instance"`
	From     State     `json:"from"`
	To       State     `json:"to"`
	At       time.Time `json:"at"`
	Reason   string    `json:"reason"`
	// Seq orders transitions; it is also the prov chain SN.
	Seq uint64 `json:"seq"`
}

// JournalNamespace is the SDL namespace holding fleet-health
// transitions, keyed "<seq>/<instance>".
const JournalNamespace = "fleet/health"

// JournalNode is the prov chain node under which fleet transitions are
// recorded: chain "smo-fleet/<seq>".
const JournalNode = "smo-fleet"

// ReadJournal returns every journaled transition in seq order.
func ReadJournal(store *sdl.Store) []Transition {
	all := store.GetAll(JournalNamespace, "")
	out := make([]Transition, 0, len(all))
	for _, raw := range all {
		var tr Transition
		if err := json.Unmarshal(raw, &tr); err == nil {
			out = append(out, tr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
