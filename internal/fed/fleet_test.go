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
