package fed

import (
	"strings"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/obs/fleet"
)

// TestClusterFleetMergedExposition checks the merged series surface of
// a live cluster: per-instance families under the instance label and
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

// xsec_fleet_* rollups over them.
func TestClusterFleetMergedExposition(t *testing.T) {
	models, mixed := testEnv(t)
	cl, err := StartCluster(ClusterOptions{
		Instances: 2, Models: models, Fleet: &fleet.CollectorOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	col := cl.Fleet()
	if err := waitFor(5*time.Second, func() bool { return col.Alive() >= 2 }); err != nil {
		t.Fatalf("collector never saw both instances: %v", err)
	}

	// Feed a few records so counters move.
	inst := cl.Instances()[0]
	for _, rec := range mixed.Trace[:4] {
		inst.GNB().InjectTelemetry(mobiflow.Trace{rec})
	}
	if err := cl.WaitRecords(4, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	done := col.ScrapeOnce()
	if done == nil {
		t.Fatal("scrape refused")
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("scrape never completed")
	}

	series := col.MergedSeries()
	var perInstance, rollups int
	for _, s := range series {
		if strings.HasPrefix(s.Name, "xsec_fleet_") {
			rollups++
			continue
		}
		if s.Labels["instance"] != "" {
			perInstance++
		}
	}
	if perInstance == 0 || rollups == 0 {
		t.Fatalf("merged exposition: %d instance-labeled, %d rollups", perInstance, rollups)
	}

	// Every per-instance series must attribute to a real instance.
	valid := map[string]bool{"ric-0": true, "ric-1": true}
	for _, s := range series {
		if inst := s.Labels["instance"]; inst != "" && !valid[inst] {
			t.Fatalf("series %s attributed to unknown instance %q", s.Name, inst)
		}
	}

	// The text exposition renders without error and carries both forms.
	var b strings.Builder
	obs.WriteSeries(&b, series)
	out := b.String()
	if !strings.Contains(out, `instance="ric-0"`) || !strings.Contains(out, "xsec_fleet_records_total") {
		t.Fatalf("text exposition missing expected content:\n%s", out)
	}
}

// TestEvictionWaitTimesTheRingUpdate pins what kill_to_evict_seconds
// measures. The collector marks an instance dead before it calls Evict,
// so a drill that stops its clock at the dead state reads the ring too
// early: with an Evict that takes 100 ms to reach Coordinator.Leave, the
// wait must still end with the victim out of the ring, and the measured
// time must include that delay.
func TestEvictionWaitTimesTheRingUpdate(t *testing.T) {
	models, _ := testEnv(t)
	const evictDelay = 100 * time.Millisecond
	var cl *Cluster
	cl, err := StartCluster(ClusterOptions{
		Instances: 2, Models: models,
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

// migrationsReported reads the xsec_fed_migrations_total series of one
// direction from what inst reports to the fleet plane.
func migrationsReported(inst *Instance, dir string) float64 {
	for _, s := range inst.ObsSnapshot() {
		if s.Name == "xsec_fed_migrations_total" && s.Labels["direction"] == dir {
			return s.Value
		}
	}
	return -1
}

// TestObsSnapshotCountsOnlyItsOwnMigrations pins what an instance
// reports to the fleet plane: its own migrations, not the process-global
// counter that every cluster in the process adds to under the same
// instance names. Two clusters in sequence each migrate one UE from
// ric-0 to ric-1; the second must report one migration, not two.
func TestObsSnapshotCountsOnlyItsOwnMigrations(t *testing.T) {
	models, mixed := testEnv(t)
	u := mixed.Trace[0].UEID
	var tr mobiflow.Trace
	for _, rec := range mixed.Trace {
		if rec.UEID == u && len(tr) < 4 {
			tr = append(tr, rec)
		}
	}
	for run := 1; run <= 2; run++ {
		cl, err := StartCluster(ClusterOptions{Instances: 2, Models: models})
		if err != nil {
			t.Fatal(err)
		}
		cl.Instance("ric-0").GNB().InjectTelemetry(tr)
		if err := cl.WaitRecords(uint64(len(tr)), 5*time.Second); err != nil {
			cl.Close()
			t.Fatal(err)
		}
		if err := cl.MigrateUE(u, "ric-0", "ric-1"); err != nil {
			cl.Close()
			t.Fatal(err)
		}
		for _, want := range []struct {
			inst, dir string
			n         float64
		}{{"ric-0", "out", 1}, {"ric-1", "in", 1}, {"ric-0", "failed", 0}, {"ric-1", "failed", 0}} {
			if got := migrationsReported(cl.Instance(want.inst), want.dir); got != want.n {
				t.Errorf("cluster %d: %s reports %v %q migrations, want %v", run, want.inst, got, want.dir, want.n)
			}
		}
		cl.Close()
	}
}
