package bench

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/6g-xsec/xsec/internal/analyzer"
	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/fed"
	"github.com/6g-xsec/xsec/internal/mitigate"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/obs/fleet"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/sdl"
	"github.com/6g-xsec/xsec/internal/smo"
	"github.com/6g-xsec/xsec/internal/ue"
)

// This file is the federation drill (`xsec-audit -federation N`): a
// federation of N RIC instances in one process, a BTS-DoS flood handed
// over between two of them mid-attack, the fleet plane's scrapes and
// stitched trace, and an unannounced crash. It judges; it records
// nothing.

const (
	// alertTimeout bounds the drill's wait for the post-migration
	// detection and its ledger events.
	alertTimeout = 10 * time.Second
	// handoverWait bounds each quiescence wait of the handover replay:
	// records sit in the gNB agent for up to one report period, so this
	// only ever expires on a stall.
	handoverWait = 10 * time.Second
	// scrapeRounds is how many timed federation scrapes the drill runs.
	scrapeRounds = 5
	// evictTimeout bounds the wait for the crashed instance's automatic
	// eviction.
	evictTimeout = 10 * time.Second
)

// DrillResult reports what the drill observed. The drill runs the
// fleet's engines in dry-run: its records are injected, so the
// destination's gNB agent holds no UE context and could not ack a
// BTS-DoS release-ue; what is asserted is the governed, journaled
// decision on the destination (an acked enforce runs through the same
// core.Node wiring in core.TestMitigationEnforceEndToEnd).
type DrillResult struct {
	Instances int

	// AttackUEs are the BTS-DoS flood's UE contexts; all of them are
	// migrated mid-attack from Source to Dest.
	AttackUEs []uint64
	Source    string
	Dest      string
	// PreRecords/PostRecords split the attack stream at the handover.
	PreRecords  int
	PostRecords int
	// BoundarySeq is the highest record sequence fed before migration.
	BoundarySeq uint64
	// AlertsOnDest counts the attack alerts the destination's analyzer
	// took after the handover (a case each; an episode's later windows
	// fold into one); detection continuity requires at least one.
	AlertsOnDest int
	// AlertSpansBoundary is the direct continuity witness: some alert
	// window on the destination contains pre-migration records, which is
	// only possible if the restored state was used.
	AlertSpansBoundary bool
	// Verdict is the destination expert's answer ("verdict/class") on the
	// flood case Mitigation was decided on; "" if no such case came.
	Verdict string
	// Mitigation is the destination engine's journal entry for that case,
	// read back from the destination's own SDL: a release-ue of a flood
	// UE the governor let through ("dry-run").
	Mitigation *mitigate.Entry
	// DecisionAudited closes the loop across the handover: Mitigation's
	// chain is a destination chain complete from emit to mitigation
	// (prov.ChainRecord.MissingStages), and the released UE's migration
	// audit joins the destination to the source's pre-migration chain.
	DecisionAudited bool
	// Audits holds one provenance verdict per migrated UE.
	Audits []prov.MigrationAudit
	// AuditsOK is true when every migrated UE's chains are joined with
	// no scoring gap.
	AuditsOK bool
	// Reachbacks counts audits whose first post-migration window also
	// directly contains the UE's restored records (sequence-level
	// witness; best-effort for interleaved floods, see prov.MigrationAudit).
	Reachbacks int
	// TotalRecords is the cluster-wide scored-record count after the
	// handover; zero-loss means it equals PreRecords+PostRecords.
	TotalRecords uint64

	// Trace stitching: the first migrated UE must yield one stitched
	// cross-instance trace with at least two segments.
	MigratedUE     uint64
	StitchedTraces int
	// TraceSegments/TraceSpans describe the migrated UE's trace.
	TraceSegments  int
	TraceSpans     int
	TraceComplete  bool
	TraceInstances int
	// StitchSeconds is how long assembling all stitched traces took.
	StitchSeconds float64
	// ScrapeSeconds is the wall-clock of each federation scrape round
	// (request out to every live instance's report merged), ascending.
	ScrapeSeconds []float64

	// Failure detection: Crash(victim) to the collector's auto-eviction.
	Victim             string
	KillToEvictSecs    float64
	EvictedFromRing    bool
	JournalTransitions int

	// Fleet surface at the end of the drill.
	MergedSeries int
	Health       []fleet.InstanceHealth
	SLOs         []fleet.SLOStatus
	FiringSLOs   int

	// Store keeps the cluster's store (ledger, fleet journal) readable
	// after teardown, so callers (xsec-audit) can render the joined
	// chains the Audits refer to.
	Store *sdl.Store
}

// floodHandover is the BTS-DoS flood of a mixed dataset, split where the
// drill hands its UE contexts over from ric-0 to ric-1.
type floodHandover struct {
	ues      []uint64        // the flood's UE contexts, each once
	isAttack map[uint64]bool // membership in ues
	flood    mobiflow.Trace  // every record of those UEs, in stream order
	boundary int             // records the source sees before the handover
}

func newFloodHandover(mixed *dataset.Labeled) (*floodHandover, error) {
	h := &floodHandover{isAttack: map[uint64]bool{}}
	for _, ev := range mixed.Events {
		if ev.Kind != ue.AttackBTSDoS {
			continue
		}
		for _, u := range ev.UEIDs {
			if !h.isAttack[u] {
				h.isAttack[u] = true
				h.ues = append(h.ues, u)
			}
		}
		break
	}
	if len(h.ues) == 0 {
		return nil, fmt.Errorf("bench: dataset contains no BTS-DoS event")
	}
	for _, rec := range mixed.Trace {
		if h.isAttack[rec.UEID] {
			h.flood = append(h.flood, rec)
		}
	}
	if len(h.flood) < 8 {
		return nil, fmt.Errorf("bench: flood too short (%d records)", len(h.flood))
	}
	h.boundary = len(h.flood) / 2
	return h, nil
}

// run replays the flood across a mid-attack handover: the first half
// arrives at ric-0's gNB, every flood UE the source holds is migrated
// to ric-1, state and all, and the second half arrives at ric-1's gNB.
// Each half is scored before the next step, so no record is in an
// agent's buffer while its UE's state moves.
func (h *floodHandover) run(cl *fed.Cluster) error {
	src, dest := cl.Instance("ric-0"), cl.Instance("ric-1")
	src.GNB().InjectTelemetry(h.flood[:h.boundary])
	if err := cl.WaitRecords(uint64(h.boundary), handoverWait); err != nil {
		return err
	}
	for _, u := range h.ues {
		if err := cl.MigrateUE(u, src.ID(), dest.ID()); err != nil {
			return fmt.Errorf("bench: migrating UE %d: %w", u, err)
		}
	}
	dest.GNB().InjectTelemetry(h.flood[h.boundary:])
	return cl.WaitRecords(uint64(len(h.flood)), handoverWait)
}

// RunDrill judges detection, mitigation and recovery of a federation of
// instances RIC instances (at least 2) in one experiment, on the models
// and attack dataset of BuildEnv(Quick(seed)). It starts a cluster with
// the fleet collector attached and, in order:
//  1. pushes the dry-run mitigation policy and waits for every
//     instance's first heartbeat;
//  2. replays a BTS-DoS flood, handing the attacking UEs over from ric-0
//     to ric-1 in the middle of it, and judges whether the destination
//     still detected the attack using the restored pre-migration
//     history, then closed the loop on it — a verdict and a governed
//     mitigation decision in its own journal, on an audited chain — and
//     whether every migrated UE's evidence chains are joined without a
//     scoring gap;
//  3. times federation scrape rounds and stitches the first migrated
//     UE's cross-instance trace;
//  4. crashes the last instance without telling the coordinator and
//     waits for the failure detector to evict it from the ring.
//
// DrillResult.Err is the verdict.
func RunDrill(instances int, seed int64) (*DrillResult, error) {
	if instances < 2 {
		instances = 2
	}
	env, err := BuildEnv(Quick(seed))
	if err != nil {
		return nil, err
	}
	h, err := newFloodHandover(env.Mixed)
	if err != nil {
		return nil, err
	}

	cl, err := fed.StartCluster(fed.ClusterOptions{
		Instances:     instances,
		Models:        env.Models,
		InstallLedger: true,
		Fleet:         &fleet.CollectorOptions{},
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	col := cl.Fleet()

	src, dest := cl.Instance("ric-0"), cl.Instance("ric-1")
	res := &DrillResult{
		Instances:   instances,
		AttackUEs:   h.ues,
		Source:      src.ID(),
		Dest:        dest.ID(),
		PreRecords:  h.boundary,
		PostRecords: len(h.flood) - h.boundary,
		BoundarySeq: h.flood[:h.boundary].LastSeq(),
		MigratedUE:  h.ues[0],
		Store:       cl.Store,
	}

	// 1. The fleet's engines get their mode the way a fleet would: one
	// push. The detector must know the whole fleet before the crash.
	if err := cl.Coordinator.PushPolicy(smo.Policy{ID: "mitigation", MitigationMode: "dry-run"}); err != nil {
		return nil, err
	}
	err = waitFor(handoverWait, func() bool {
		for _, inst := range cl.Instances() {
			if inst.Node().Mitigator().Mode() != mitigate.ModeDryRun {
				return false
			}
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("bench: dry-run policy never reached every engine: %w", err)
	}
	if err := waitFor(5*time.Second, func() bool { return col.Alive() >= instances }); err != nil {
		return nil, fmt.Errorf("bench: collector never saw all %d instances: %w", instances, err)
	}

	// 2. The handover. Wait for the destination's cases to show both
	// witnesses (they come one verdict at a time) and for the deferred
	// window flushes to land in the ledger: the xApp worker records
	// window provenance at its next batch flush (≤ 2 ms later), so the
	// ledger can trail the record counters by a few milliseconds. The
	// other instances' cases stay in their case buffers; nobody reads
	// them here.
	if err := h.run(cl); err != nil {
		return nil, err
	}
	var destCases []*analyzer.Case
	_ = waitFor(alertTimeout, func() bool { // res says what, if anything, never came
		for more := true; more; {
			select {
			case c := <-dest.Node().Cases():
				destCases = append(destCases, c)
			default:
				more = false
			}
		}
		res.Audits = cl.AuditMigrations()
		res.AuditsOK = len(res.Audits) > 0 &&
			!slices.ContainsFunc(res.Audits, func(a prov.MigrationAudit) bool { return !a.OK() })
		res.judge(destCases, h, dest, cl.Store)
		return res.AlertSpansBoundary && res.DecisionAudited && res.AuditsOK
	})
	res.TotalRecords = cl.TotalRecords()
	for _, a := range res.Audits {
		if a.Reachback {
			res.Reachbacks++
		}
	}
	sort.Slice(res.Audits, func(i, j int) bool { return res.Audits[i].UEID < res.Audits[j].UEID })

	// 3. Timed federation scrapes. Each round waits for every live
	// instance's report, so the measurement covers request fan-out,
	// snapshot assembly, bus transit, and merge. Then the migrated UE's
	// spans from both instances must assemble into one trace.
	for n := 0; n < scrapeRounds; n++ {
		start := time.Now()
		done := col.ScrapeOnce()
		if done == nil {
			return nil, fmt.Errorf("bench: scrape round %d refused", n)
		}
		select {
		case <-done:
			res.ScrapeSeconds = append(res.ScrapeSeconds, time.Since(start).Seconds())
		case <-time.After(5 * time.Second):
			return nil, fmt.Errorf("bench: scrape round %d never completed", n)
		}
	}
	sort.Float64s(res.ScrapeSeconds)
	stitchStart := time.Now()
	traces := col.Traces()
	res.StitchSeconds = time.Since(stitchStart).Seconds()
	res.StitchedTraces = len(traces)
	if n := slices.IndexFunc(traces, func(tr fleet.StitchedTrace) bool { return tr.UEID == res.MigratedUE }); n >= 0 {
		tr := traces[n]
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
	}

	// 4. Crash the last instance without telling the coordinator; only
	// the failure detector can notice.
	res.Victim = fmt.Sprintf("ric-%d", instances-1)
	res.KillToEvictSecs, res.EvictedFromRing, err = crashAndAwaitEviction(cl, res.Victim)
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
	return res, nil
}

// Err is the drill's verdict, the exit code of xsec-audit -federation:
// nil when the destination flagged the migrated flood, every migrated
// UE's chains are joined, the loop closed on an audited chain, the
// migrated UE's trace stitched across instances, the crashed instance
// left the ring, and no SLO is firing. It joins every check that failed.
func (res *DrillResult) Err() error {
	var errs []error
	fail := func(failed bool, msg string, args ...any) {
		if failed {
			errs = append(errs, fmt.Errorf(msg, args...))
		}
	}
	fail(res.AlertsOnDest == 0, "the destination instance never flagged the migrated attack")
	fail(!res.AuditsOK, "migration provenance audit failed")
	fail(!res.DecisionAudited, "the destination instance reached no governed, audited mitigation decision on the migrated attack")
	fail(res.TraceSegments < 2 || res.TraceInstances < 2 || !res.TraceComplete,
		"migrated UE %d did not yield a complete cross-instance trace", res.MigratedUE)
	fail(!res.EvictedFromRing, "crashed instance %s was not auto-evicted from the ring", res.Victim)
	fail(res.FiringSLOs > 0, "%d SLO(s) burning error budget above threshold", res.FiringSLOs)
	return errors.Join(errs...)
}

// judge reads the destination's cases for the handover's two witnesses:
// detection continuity (a flood case whose window reaches back over the
// handover) and the closed loop (see DrillResult.DecisionAudited).
// ledger is the store the cluster's provenance ledger persists to;
// res.Audits must be current.
func (res *DrillResult) judge(cases []*analyzer.Case, h *floodHandover, dest *fed.Instance, ledger *sdl.Store) {
	res.AlertsOnDest, res.AlertSpansBoundary = 0, false
	journal := mitigate.Entries(dest.Store())
	for _, c := range cases {
		if !slices.ContainsFunc(c.Alert.Window, func(r mobiflow.Record) bool { return h.isAttack[r.UEID] }) {
			continue
		}
		res.AlertsOnDest++
		if c.Alert.Window.FirstSeq() <= res.BoundarySeq {
			res.AlertSpansBoundary = true
		}
		if res.DecisionAudited || c.Analysis == nil || c.Control == nil || !h.isAttack[c.Control.UEID] {
			continue
		}
		chain := prov.ChainID{Node: c.Alert.NodeID, SN: c.Alert.IndicationSN}
		n := slices.IndexFunc(journal, func(en mitigate.Entry) bool {
			return en.Chain == chain.String() && en.Decision == "dry-run"
		})
		if n < 0 {
			continue
		}
		res.Verdict = c.Analysis.Verdict.String() + "/" + c.Analysis.TopClass().String()
		res.Mitigation = &journal[n]
		rec, err := prov.ReadChain(ledger, chain)
		res.DecisionAudited = err == nil && len(rec.MissingStages()) == 0 &&
			chain.Node == dest.GNB().NodeID() &&
			slices.ContainsFunc(res.Audits, func(a prov.MigrationAudit) bool {
				return a.UEID == c.Control.UEID && a.To.Node == chain.Node && a.OK()
			})
	}
}

// crashAndAwaitEviction crashes victim without telling the coordinator
// and waits for what the drill claims to time: the coordinator's ring
// at a later epoch without the victim. The collector marks an instance
// dead, journals that, and only then calls Evict, so its health view
// turns dead before the ring changes; the clock stops at the ring. It
// reports the seconds waited and whether the ring was updated within
// evictTimeout.
func crashAndAwaitEviction(cl *fed.Cluster, victim string) (secs float64, evicted bool, err error) {
	epochBefore := cl.Coordinator.Ring().Epoch
	killedAt := time.Now()
	if err := cl.Crash(victim); err != nil {
		return 0, false, err
	}
	evicted = waitFor(evictTimeout, func() bool {
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
