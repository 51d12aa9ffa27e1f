package fed

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"github.com/6g-xsec/xsec/internal/analyzer"
	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/mitigate"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/sdl"
	"github.com/6g-xsec/xsec/internal/smo"
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

// ScenarioResult reports what the migration scenario observed. The drill
// runs the fleet's engines in dry-run: its records are injected, so the
// destination's gNB agent holds no UE context and could not ack a
// BTS-DoS release-ue; what is asserted is the governed, journaled
// decision on the destination (an acked enforce runs through the same
// core.Node wiring in core.TestMitigationEnforceEndToEnd).
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
	// AlertsOnDest counts the attack alerts the destination's analyzer
	// took after the handover (a case each; an episode's later windows
	// fold into one); detection continuity requires at least one.
	AlertsOnDest int `json:"alerts_on_dest"`
	// AlertSpansBoundary is the direct continuity witness: some alert
	// window on the destination contains pre-migration records, which is
	// only possible if the restored state was used.
	AlertSpansBoundary bool `json:"alert_spans_boundary"`
	// Verdict is the destination expert's answer ("verdict/class") on the
	// flood case Mitigation was decided on; "" if no such case came.
	Verdict string `json:"verdict"`
	// Mitigation is the destination engine's journal entry for that case,
	// read back from the destination's own SDL: a release-ue of a flood
	// UE the governor let through ("dry-run").
	Mitigation *mitigate.Entry `json:"mitigation,omitempty"`
	// DecisionAudited closes the loop across the handover: Mitigation's
	// chain is a destination chain complete from emit to mitigation
	// (prov.ChainRecord.MissingStages), and the released UE's migration
	// audit joins the destination to the source's pre-migration chain.
	DecisionAudited bool `json:"decision_audited"`
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
// pre-migration history), whether it then closed the loop on it — a
// verdict and a governed mitigation decision in its own journal, on an
// audited chain — and whether the provenance ledger shows every migrated
// UE's evidence chains joined without a scoring gap.
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

	// The fleet's engines get their mode the way a fleet would: one push.
	if err := cl.Coordinator.PushPolicy(smo.Policy{ID: "mitigation", MitigationMode: "dry-run"}); err != nil {
		return nil, err
	}
	err = waitFor(handoverWait, func() bool {
		for _, inst := range cl.Instances() {
			if inst.node.Mitigator().Mode() != mitigate.ModeDryRun {
				return false
			}
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("fed: dry-run policy never reached every engine: %w", err)
	}

	if err := h.run(cl); err != nil {
		return nil, err
	}

	// Wait for the destination's cases to show both witnesses (they come
	// one verdict at a time) and for the deferred window flushes to land
	// in the ledger: the xApp worker records window provenance at its
	// next batch flush (≤ 2 ms later), so the ledger can trail the record
	// counters by a few milliseconds. The source's cases stay in its case
	// buffer; nobody reads them here.
	var destCases []*analyzer.Case
	_ = waitFor(alertTimeout, func() bool { // res says what, if anything, never came
		for more := true; more; {
			select {
			case c := <-dest.node.Cases():
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
	res.Store = cl.Store
	for _, a := range res.Audits {
		if a.Reachback {
			res.Reachbacks++
		}
	}
	sort.Slice(res.Audits, func(i, j int) bool { return res.Audits[i].UEID < res.Audits[j].UEID })
	return res, nil
}

// Err is the drill's verdict, the exit code of xsec-testbed -federation
// and xsec-audit -federation: nil when the destination flagged the
// migrated flood, every migrated UE's chains are joined, and the loop
// closed on an audited chain.
func (res *ScenarioResult) Err() error {
	switch {
	case res.AlertsOnDest == 0:
		return errors.New("the destination instance never flagged the migrated attack")
	case !res.AuditsOK:
		return errors.New("migration provenance audit failed")
	case !res.DecisionAudited:
		return errors.New("the destination instance reached no governed, audited mitigation decision on the migrated attack")
	}
	return nil
}

// judge reads the destination's cases for the drill's two witnesses:
// detection continuity (a flood case whose window reaches back over the
// handover) and the closed loop (see ScenarioResult.DecisionAudited).
// ledger is the store the cluster's provenance ledger persists to;
// res.Audits must be current.
func (res *ScenarioResult) judge(cases []*analyzer.Case, h *floodHandover, dest *Instance, ledger *sdl.Store) {
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
