package bench

import (
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/fed"
	"github.com/6g-xsec/xsec/internal/llm"
	"github.com/6g-xsec/xsec/internal/obs/fleet"
)

// testDrill runs the acceptance drill that the migration and fleet
// acceptance tests below each judge. Three instances, so the crashed
// ric-2 is not the destination. Each test runs its own drill, so a
// repeated run (-count) repeats the drill too.
func testDrill(t *testing.T) *DrillResult {
	t.Helper()
	res, err := RunDrill(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMigrationScenarioContinuity is the federation acceptance test: a
// BTS-DoS flood is handed over from ric-0 to ric-1 mid-attack, and the
// destination must still detect it — with alert windows reaching back
// into pre-migration history — and close the loop on it: a verdict and a
// governed mitigation decision journaled in the destination's own SDL,
// both on a destination chain the released UE's migration audit joins to
// the source, while the provenance ledger shows every migrated UE's
// chains joined with no scoring gap.
func TestMigrationScenarioContinuity(t *testing.T) {
	res := testDrill(t)
	t.Logf("drill: %d UEs, %d+%d records, %d dest alerts (spansBoundary=%v), %d audits",
		len(res.AttackUEs), res.PreRecords, res.PostRecords,
		res.AlertsOnDest, res.AlertSpansBoundary, len(res.Audits))

	if res.AlertsOnDest == 0 {
		t.Fatal("destination raised no alert for the migrated attack")
	}
	if !res.AlertSpansBoundary {
		t.Error("no destination alert window reaches into pre-migration history")
	}
	if want := uint64(res.PreRecords + res.PostRecords); res.TotalRecords != want {
		t.Errorf("records scored = %d, want %d (zero loss)", res.TotalRecords, want)
	}
	if len(res.Audits) == 0 {
		t.Fatal("ledger holds no migration audits")
	}
	if len(res.Audits) != len(res.AttackUEs) {
		t.Errorf("audits for %d UEs, migrated %d", len(res.Audits), len(res.AttackUEs))
	}
	for _, a := range res.Audits {
		if !a.OK() {
			t.Errorf("UE %d: migration audit failed: %s (joined=%v continuous=%v)",
				a.UEID, a.Err, a.Joined, a.Continuous)
		}
	}
	if !res.AuditsOK {
		t.Error("drill reports AuditsOK=false")
	}

	en := res.Mitigation
	if en == nil {
		t.Fatal("destination journaled no governed decision for the migrated flood")
	}
	t.Logf("destination decision: verdict %s, %s %s (%s) on chain %s", res.Verdict, en.Action, en.Target, en.Decision, en.Chain)
	if want := llm.VerdictAnomalous.String() + "/" + llm.ClassBTSDoS.String(); res.Verdict != want {
		t.Errorf("verdict = %q, want the flood classified", res.Verdict)
	}
	if en.Action != "release-ue" || en.Decision != "dry-run" || en.Mode != "dry-run" || en.NodeID != "gnb-"+res.Dest {
		t.Errorf("journal entry = %+v, want a dry-run release-ue on the destination's node", en)
	}
	if !res.DecisionAudited {
		t.Errorf("decision on chain %s is not on a destination chain carrying verdict and mitigation events for a UE whose migration audit is OK", en.Chain)
	}
}

// TestFleetDrill is the fleet observability acceptance test: the same
// drill must produce a stitched cross-instance trace for the migrated
// UE, timed scrape rounds with a merged exposition, and an automatic
// ring eviction after an unannounced crash, with no SLO firing.
func TestFleetDrill(t *testing.T) {
	res := testDrill(t)
	t.Logf("fleet drill: %d stitched traces, %d merged series, kill->evict %.3fs",
		res.StitchedTraces, res.MergedSeries, res.KillToEvictSecs)

	// Trace stitching: the migrated UE's spans from source and
	// destination assemble into one distributed trace.
	if res.StitchedTraces == 0 {
		t.Fatal("no stitched traces")
	}
	if res.TraceSegments < 2 || res.TraceInstances < 2 {
		t.Fatalf("migrated UE %d trace: %d segments across %d instances, want >=2 each",
			res.MigratedUE, res.TraceSegments, res.TraceInstances)
	}
	if !res.TraceComplete {
		t.Fatal("migrated UE's trace has an unjoined hop")
	}
	if res.TraceSpans == 0 {
		t.Fatal("stitched trace carries no spans")
	}

	// Scrapes completed and merged per-instance series under the
	// instance label plus fleet rollups.
	if len(res.ScrapeSeconds) != scrapeRounds {
		t.Fatalf("scrape rounds = %d, want %d", len(res.ScrapeSeconds), scrapeRounds)
	}
	if res.MergedSeries == 0 {
		t.Fatal("merged exposition is empty")
	}

	// Failure detection: the crashed instance was evicted by the
	// detector (no Leave call) within its deadline budget.
	if res.Victim != "ric-2" || !res.EvictedFromRing {
		t.Fatalf("victim %s still in the ring (evicted=%v)", res.Victim, res.EvictedFromRing)
	}
	if res.KillToEvictSecs <= 0 || res.KillToEvictSecs > 5 {
		t.Fatalf("kill-to-evict = %vs", res.KillToEvictSecs)
	}
	if res.JournalTransitions < 2 {
		t.Fatalf("journal transitions = %d, want suspect+dead", res.JournalTransitions)
	}

	// The journal names the victim's suspect -> dead path.
	journal := fleet.ReadJournal(res.Store)
	var sawSuspect, sawDead bool
	for _, tr := range journal {
		if tr.Instance != res.Victim {
			continue
		}
		switch tr.To {
		case fleet.StateSuspect:
			sawSuspect = true
		case fleet.StateDead:
			sawDead = true
		}
	}
	if !sawSuspect || !sawDead {
		t.Fatalf("victim transitions missing (suspect=%v dead=%v): %+v", sawSuspect, sawDead, journal)
	}

	for _, s := range res.SLOs {
		if s.Firing {
			t.Errorf("SLO %s firing: sli %.4f, burn fast %.2f slow %.2f", s.Name, s.SLI, s.BurnFast, s.BurnSlow)
		}
	}
	if err := res.Err(); err != nil {
		t.Errorf("drill verdict: %v", err)
	}
}

// TestEvictionWaitTimesTheRingUpdate pins what KillToEvictSecs
// measures. The collector marks an instance dead before it calls Evict,
// so a drill that stops its clock at the dead state reads the ring too
// early: with an Evict that takes 100 ms to reach Coordinator.Leave, the
// wait must still end with the victim out of the ring, and the measured
// time must include that delay.
func TestEvictionWaitTimesTheRingUpdate(t *testing.T) {
	env, err := BuildEnv(Quick(1))
	if err != nil {
		t.Fatal(err)
	}
	const evictDelay = 100 * time.Millisecond
	var cl *fed.Cluster
	cl, err = fed.StartCluster(fed.ClusterOptions{
		Instances: 2, Models: env.Models,
		Fleet: &fleet.CollectorOptions{
			Evict: func(instance string) error {
				time.Sleep(evictDelay)
				_, err := cl.Coordinator.Leave(instance)
				return err
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := waitFor(5*time.Second, func() bool { return cl.Fleet().Alive() >= 2 }); err != nil {
		t.Fatalf("collector never saw both instances: %v", err)
	}

	secs, evicted, err := crashAndAwaitEviction(cl, "ric-1")
	if err != nil {
		t.Fatal(err)
	}
	if !evicted || cl.Coordinator.Ring().Contains("ric-1") {
		t.Fatalf("victim still in the ring after the wait (evicted=%v)", evicted)
	}
	if secs < evictDelay.Seconds() {
		t.Errorf("kill-to-evict = %.3fs, shorter than the %v eviction itself", secs, evictDelay)
	}
}
