package fed

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/sdl"
	"github.com/6g-xsec/xsec/internal/ue"
)

// ScenarioOptions configures the mid-attack migration scenario.
type ScenarioOptions struct {
	// Instances is the federation size (default 2; the attack source is
	// "ric-0", the handover destination "ric-1").
	Instances int
	// Seed drives dataset generation and training (default 1).
	Seed int64
	// Models and Mixed, when set, skip the scenario's own dataset
	// generation and training (tests and benches reuse a cached
	// environment; the CLIs let the scenario build its own).
	Models *mobiwatch.Models
	Mixed  *dataset.Labeled
}

const (
	// alertTimeout bounds the scenario's wait for the post-migration
	// detection and its ledger events.
	alertTimeout = 10 * time.Second
	// handoverWait bounds each quiescence wait of the handover replay:
	// records sit in the gNB agent for up to one report period, so this
	// only ever expires on a stall.
	handoverWait = 10 * time.Second
)

// ScenarioResult reports what the migration scenario observed.
type ScenarioResult struct {
	// AttackUEs are the BTS-DoS flood's UE contexts; all of them are
	// migrated mid-attack from Source to Dest.
	AttackUEs []uint64 `json:"attack_ues"`
	Source    string   `json:"source"`
	Dest      string   `json:"dest"`
	// PreRecords/PostRecords split the attack stream at the handover.
	PreRecords  int `json:"pre_records"`
	PostRecords int `json:"post_records"`
	// BoundarySeq is the highest record sequence fed before migration.
	BoundarySeq uint64 `json:"boundary_seq"`
	// AlertsOnDest counts attack alerts raised by the destination after
	// the handover; detection continuity requires at least one.
	AlertsOnDest int `json:"alerts_on_dest"`
	// AlertSpansBoundary is the direct continuity witness: some alert
	// window on the destination contains pre-migration records, which is
	// only possible if the restored state was used.
	AlertSpansBoundary bool `json:"alert_spans_boundary"`
	// Audits holds one provenance verdict per migrated UE.
	Audits []prov.MigrationAudit `json:"audits"`
	// AuditsOK is true when every migrated UE's chains are joined with
	// no scoring gap.
	AuditsOK bool `json:"audits_ok"`
	// Reachbacks counts audits whose first post-migration window also
	// directly contains the UE's restored records (sequence-level
	// witness; best-effort for interleaved floods, see prov.MigrationAudit).
	Reachbacks int `json:"reachbacks"`
	// TotalRecords is the cluster-wide scored-record count at the end;
	// zero-loss means it equals PreRecords+PostRecords.
	TotalRecords uint64 `json:"total_records"`
	// Store keeps the cluster's provenance store readable after the
	// cluster is torn down, so callers (xsec-audit) can render the
	// joined chains the Audits refer to.
	Store *sdl.Store `json:"-"`
}

// buildScenarioEnv trains models and generates the attack dataset with
// the quick settings the repo's unit tests use.
func buildScenarioEnv(seed int64) (*mobiwatch.Models, *dataset.Labeled, error) {
	benign, err := dataset.GenerateBenign(dataset.BenignConfig{
		Sessions: 40, Fleet: 10, Seed: seed,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("fed: benign dataset: %w", err)
	}
	models, err := mobiwatch.Train(benign, mobiwatch.TrainOptions{
		Window: 4, Percentile: 99, Epochs: 12, Seed: seed + 2,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("fed: training: %w", err)
	}
	mixed, err := dataset.GenerateMixed(dataset.MixedConfig{
		BenignConfig:       dataset.BenignConfig{Fleet: 10, Seed: seed + 1},
		InstancesPerAttack: 1,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("fed: attack dataset: %w", err)
	}
	return models, mixed, nil
}

// floodHandover is the BTS-DoS flood of a mixed dataset, split where the
// drills hand its UE contexts over from ric-0 to ric-1.
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
		return nil, fmt.Errorf("fed: dataset contains no BTS-DoS event")
	}
	for _, rec := range mixed.Trace {
		if h.isAttack[rec.UEID] {
			h.flood = append(h.flood, rec)
		}
	}
	if len(h.flood) < 8 {
		return nil, fmt.Errorf("fed: flood too short (%d records)", len(h.flood))
	}
	h.boundary = len(h.flood) / 2
	return h, nil
}

// drillEnv resolves what both drills start from: the caller's cached
// models and dataset (or ones built from seed when either is missing)
// and the dataset's flood, split for the handover.
func drillEnv(models *mobiwatch.Models, mixed *dataset.Labeled, seed int64) (*mobiwatch.Models, *floodHandover, error) {
	if models == nil || mixed == nil {
		var err error
		models, mixed, err = buildScenarioEnv(seed)
		if err != nil {
			return nil, nil, err
		}
	}
	h, err := newFloodHandover(mixed)
	return models, h, err
}

// run replays the flood across a mid-attack handover: the first half
// arrives at ric-0's gNB, every flood UE the source holds is migrated
// to ric-1, state and all, and the second half arrives at ric-1's gNB.
// Each half is scored before the next step, so no record is in an
// agent's buffer while its UE's state moves.
func (h *floodHandover) run(cl *Cluster) error {
	src, dest := cl.Instance("ric-0"), cl.Instance("ric-1")
	src.GNB().InjectTelemetry(h.flood[:h.boundary])
	if err := cl.WaitRecords(uint64(h.boundary), handoverWait); err != nil {
		return err
	}
	for _, u := range h.ues {
		if err := cl.MigrateUE(u, src.ID(), dest.ID()); err != nil {
			return fmt.Errorf("fed: migrating UE %d: %w", u, err)
		}
	}
	dest.GNB().InjectTelemetry(h.flood[h.boundary:])
	return cl.WaitRecords(uint64(len(h.flood)), handoverWait)
}

// RunMigrationScenario replays a BTS-DoS flood against a federated
// cluster and hands the attacking UEs over from ric-0 to ric-1 in the
// middle of it: the first half of the attack stream arrives at the
// source, every flood UE's window state is checkpointed and migrated,
// and the second half arrives at the destination. It reports whether
// the destination still detected the attack (using the restored
// pre-migration history) and whether the provenance ledger shows every
// migrated UE's evidence chains joined without a scoring gap.
func RunMigrationScenario(opts ScenarioOptions) (*ScenarioResult, error) {
	if opts.Instances < 2 {
		opts.Instances = 2
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	models, h, err := drillEnv(opts.Models, opts.Mixed, opts.Seed)
	if err != nil {
		return nil, err
	}

	cl, err := StartCluster(ClusterOptions{
		Instances:     opts.Instances,
		Models:        models,
		InstallLedger: true,
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	src, dest := cl.Instance("ric-0"), cl.Instance("ric-1")
	res := &ScenarioResult{
		AttackUEs:   h.ues,
		Source:      src.ID(),
		Dest:        dest.ID(),
		PreRecords:  h.boundary,
		PostRecords: len(h.flood) - h.boundary,
		BoundarySeq: h.flood[:h.boundary].LastSeq(),
	}

	// Collect the destination's alerts as its triage queue hands them
	// out; the source's are left to be shed as stale, nobody analyses them.
	var alertMu sync.Mutex
	var destAlerts []mobiwatch.Alert
	go dest.DrainAlerts(func(a mobiwatch.Alert) {
		alertMu.Lock()
		destAlerts = append(destAlerts, a)
		alertMu.Unlock()
	})
	snapshotAlerts := func() []mobiwatch.Alert {
		alertMu.Lock()
		defer alertMu.Unlock()
		return append([]mobiwatch.Alert(nil), destAlerts...)
	}

	if err := h.run(cl); err != nil {
		return nil, err
	}

	// Wait for the destination to flag the flood and for the deferred
	// window flushes to land in the ledger: the xApp worker records
	// window provenance at its next batch flush (≤ 2 ms later), so
	// the ledger can trail the record counters by a few milliseconds.
	deadline := time.Now().Add(alertTimeout)
	for {
		res.AlertsOnDest, res.AlertSpansBoundary =
			summarizeAlerts(snapshotAlerts(), h.isAttack, res.BoundarySeq)
		res.Audits = cl.AuditMigrations()
		res.AuditsOK = len(res.Audits) > 0
		for _, a := range res.Audits {
			if !a.OK() {
				res.AuditsOK = false
			}
		}
		if (res.AlertsOnDest > 0 && res.AuditsOK) || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	res.TotalRecords = cl.TotalRecords()
	res.Store = cl.Store
	for _, a := range res.Audits {
		if a.Reachback {
			res.Reachbacks++
		}
	}
	sort.Slice(res.Audits, func(i, j int) bool { return res.Audits[i].UEID < res.Audits[j].UEID })
	return res, nil
}

func summarizeAlerts(alerts []mobiwatch.Alert, isAttack map[uint64]bool, boundarySeq uint64) (int, bool) {
	count, spans := 0, false
	for _, a := range alerts {
		hit := false
		for _, rec := range a.Window {
			if isAttack[rec.UEID] {
				hit = true
			}
		}
		if !hit {
			continue
		}
		count++
		if a.Window.FirstSeq() <= boundarySeq {
			spans = true
		}
	}
	return count, spans
}
