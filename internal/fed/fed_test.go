package fed

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/gnb"
	"github.com/6g-xsec/xsec/internal/mitigate"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/sdl"
	"github.com/6g-xsec/xsec/internal/smo"
	"github.com/6g-xsec/xsec/internal/wire"
)

// The trained models and attack dataset are the expensive fixtures;
// build them once for the whole package, with the settings of
// bench.Quick(1) (this package cannot import bench, which imports it).
var (
	envOnce   sync.Once
	envModels *mobiwatch.Models
	envMixed  *dataset.Labeled
	envErr    error
)

func testEnv(t *testing.T) (*mobiwatch.Models, *dataset.Labeled) {
	t.Helper()
	envOnce.Do(func() {
		var benign mobiflow.Trace
		benign, envErr = dataset.GenerateBenign(dataset.BenignConfig{Sessions: 40, Fleet: 10, Seed: 1})
		if envErr != nil {
			return
		}
		envModels, envErr = mobiwatch.Train(benign, mobiwatch.TrainOptions{
			Window: 4, Percentile: 99, Epochs: 12, Seed: 3,
		})
		if envErr != nil {
			return
		}
		envMixed, envErr = dataset.GenerateMixed(dataset.MixedConfig{
			BenignConfig:       dataset.BenignConfig{Fleet: 10, Seed: 2},
			InstancesPerAttack: 1,
		})
	})
	if envErr != nil {
		t.Fatalf("building test env: %v", envErr)
	}
	return envModels, envMixed
}

// waitFor polls cond until true or timeout.
func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("condition not met within %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// TestClusterJoinRebalance checks ring-driven migration: when a new
// instance joins, existing members migrate exactly the UEs the new
// ring assigns to the joiner, with no scored records lost.
func TestClusterJoinRebalance(t *testing.T) {
	models, mixed := testEnv(t)
	cl, err := StartCluster(ClusterOptions{Instances: 2, Models: models, InstallLedger: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Feed a handful of UEs to their ring owners.
	byUE := map[uint64]mobiflow.Trace{}
	for _, rec := range mixed.Trace {
		byUE[rec.UEID] = append(byUE[rec.UEID], rec)
	}
	var fed uint64
	var ues []uint64
	for u, tr := range byUE {
		if len(tr) < 4 || len(ues) >= 12 {
			continue
		}
		ues = append(ues, u)
		owner := cl.OwnerOf(u)
		if owner == nil {
			t.Fatalf("no owner for UE %d", u)
		}
		for _, rec := range tr[:4] {
			owner.GNB().InjectTelemetry(mobiflow.Trace{rec})
			fed++
		}
	}
	if err := cl.WaitRecords(fed, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	oldRing := cl.Coordinator.Ring()
	joiner, err := cl.Join("ric-2")
	if err != nil {
		t.Fatal(err)
	}
	newRing := cl.Coordinator.Ring()

	// Which of our UEs should move? Those reassigned to the joiner.
	var moving []uint64
	for _, u := range ues {
		if oldRing.Owner(u) != newRing.Owner(u) {
			if got := newRing.Owner(u); got != "ric-2" {
				t.Fatalf("UE %d moved to %s on join of ric-2", u, got)
			}
			moving = append(moving, u)
		}
	}
	if len(moving) == 0 {
		t.Skip("hash placement moved none of the sampled UEs; nothing to assert")
	}

	// The joiner must end up holding exactly the reassigned UEs' state.
	deadline := time.Now().Add(10 * time.Second)
	for {
		held := map[uint64]bool{}
		for _, u := range joiner.UEs() {
			held[u] = true
		}
		all := true
		for _, u := range moving {
			if !held[u] {
				all = false
			}
		}
		if all {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("joiner holds %v, want at least %v", joiner.UEs(), moving)
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, u := range moving {
		if src := cl.Instance(oldRing.Owner(u)); src != nil {
			srcDeadline := time.Now().Add(10 * time.Second)
			for {
				stillHeld := false
				for _, held := range src.UEs() {
					if held == u {
						stillHeld = true
					}
				}
				if !stillHeld {
					break
				}
				if time.Now().After(srcDeadline) {
					t.Fatalf("UE %d still held by %s after rebalance", u, src.ID())
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
	}

	if got := cl.TotalRecords(); got != fed {
		t.Errorf("records scored = %d, want %d (zero loss across rebalance)", got, fed)
	}
}

// TestDegradedStandalone checks that an instance without a reachable
// bus keeps detecting: records score, health reports the degradation,
// and migration fails fast instead of blocking.
func TestDegradedStandalone(t *testing.T) {
	models, mixed := testEnv(t)
	failedBefore := obsBusPublishFailures.With("ric-dark").Value()
	inst, err := StartInstance(InstanceOptions{
		ID: "ric-dark", Models: models,
		dial: func() (*wire.Conn, error) { return nil, fmt.Errorf("no route to broker") },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()

	var u uint64
	var tr mobiflow.Trace
	for cand, recs := range func() map[uint64]mobiflow.Trace {
		m := map[uint64]mobiflow.Trace{}
		for _, rec := range mixed.Trace {
			m[rec.UEID] = append(m[rec.UEID], rec)
		}
		return m
	}() {
		if len(recs) >= 4 {
			u, tr = cand, recs[:4]
			break
		}
	}
	for _, rec := range tr {
		inst.GNB().InjectTelemetry(mobiflow.Trace{rec})
	}
	deadline := time.Now().Add(5 * time.Second)
	for inst.Records() < uint64(len(tr)) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := inst.Records(); got < uint64(len(tr)) {
		t.Fatalf("degraded instance scored %d/%d records", got, len(tr))
	}

	if _, err := inst.healthDetail(); err == nil {
		t.Error("health check passes with unreachable bus")
	}
	if err := inst.MigrateUE(u, "ric-elsewhere"); err == nil {
		t.Error("migration succeeded with unreachable bus")
	}
	if obsBusPublishFailures.With("ric-dark").Value() == failedBefore {
		t.Error("degraded publish failures not counted")
	}
}

// TestPolicyFanout checks coordinator→bus→instance A1 distribution
// through the shared core.Node.ApplyPolicy: one PushPolicy retunes the
// detection threshold of every instance's private model copy, and one
// with a mitigation mode re-governs every instance's engine.
func TestPolicyFanout(t *testing.T) {
	models, _ := testEnv(t)
	sharedAE := models.AEThreshold
	cl, err := StartCluster(ClusterOptions{Instances: 2, Models: models})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	eventually := func(what string, cond func(*Instance) bool) {
		t.Helper()
		for _, inst := range cl.Instances() {
			if err := waitFor(5*time.Second, func() bool { return cond(inst) }); err != nil {
				t.Fatalf("instance %s never %s", inst.ID(), what)
			}
		}
	}

	before := map[string]float64{}
	for _, inst := range cl.Instances() {
		ae, _ := inst.Runtime().Thresholds()
		before[inst.ID()] = ae
	}
	if err := cl.Coordinator.PushPolicy(smo.Policy{ID: "fed-tune", ThresholdPercentile: 90}); err != nil {
		t.Fatal(err)
	}
	eventually("applied the fanned-out threshold policy", func(inst *Instance) bool {
		ae, _ := inst.Runtime().Thresholds()
		return ae != before[inst.ID()]
	})
	if models.AEThreshold != sharedAE {
		t.Errorf("policy re-fitted the shared bundle (%g -> %g); each instance owns a private copy", sharedAE, models.AEThreshold)
	}

	for _, inst := range cl.Instances() {
		if got := inst.node.Mitigator().Mode(); got != mitigate.ModeOff {
			t.Fatalf("instance %s engine starts in %v, want off until a policy says otherwise", inst.ID(), got)
		}
	}
	for _, mode := range []mitigate.Mode{mitigate.ModeEnforce, mitigate.ModeDryRun} {
		if err := cl.Coordinator.PushPolicy(smo.Policy{ID: "fed-mitigation", MitigationMode: mode.String()}); err != nil {
			t.Fatal(err)
		}
		eventually("switched its engine to "+mode.String(), func(inst *Instance) bool {
			return inst.node.Mitigator().Mode() == mode
		})
	}
}

// healthChecks returns the registered /healthz checks whose name has the
// given prefix, by name.
func healthChecks(prefix string) map[string]obs.HealthStatus {
	out := map[string]obs.HealthStatus{}
	for _, h := range obs.HealthSnapshot() {
		if strings.HasPrefix(h.Name, prefix) {
			out[h.Name] = h
		}
	}
	return out
}

// TestColocatedInstancesKeepTheirOwnHealthChecks pins the process-global
// names two nodes in one process would fight over: each instance's
// serving layer answers /healthz under its own node's name, and stopping
// one instance leaves the other's check registered.
func TestColocatedInstancesKeepTheirOwnHealthChecks(t *testing.T) {
	models, _ := testEnv(t)
	var insts []*Instance
	for _, id := range []string{"ric-hz-a", "ric-hz-b"} {
		inst, err := StartInstance(InstanceOptions{ID: id, Models: models})
		if err != nil {
			t.Fatal(err)
		}
		defer inst.Stop()
		insts = append(insts, inst)
	}
	checks := healthChecks("llm-serving/gnb-ric-hz-")
	for _, inst := range insts {
		h, ok := checks["llm-serving/"+inst.GNB().NodeID()]
		if !ok || !h.OK || !strings.Contains(h.Detail, "hits=") {
			t.Errorf("instance %s: serving health = %+v (registered %v)", inst.ID(), h, ok)
		}
	}
	insts[0].Stop()
	checks = healthChecks("llm-serving/gnb-ric-hz-")
	if _, ok := checks["llm-serving/gnb-ric-hz-a"]; ok {
		t.Error("stopped instance's serving check is still registered")
	}
	if h, ok := checks["llm-serving/gnb-ric-hz-b"]; !ok || !h.OK {
		t.Errorf("stopping ric-hz-a took ric-hz-b's serving check with it (%+v, registered %v)", h, ok)
	}
	if fedChecks := healthChecks("fed/ric-hz-"); len(fedChecks) != 1 {
		t.Errorf("fed checks after one Stop = %v, want only ric-hz-b's", fedChecks)
	}
}

// indicationsSent reads the gNB agent's indication counter for node
// from the process registry.
func indicationsSent(node string) float64 {
	for _, sr := range obs.Default.Snapshot() {
		if sr.Name == "xsec_gnb_indications_sent_total" && sr.Labels["node"] == node {
			return sr.Value
		}
	}
	return 0
}

// TestInstanceRunsShippedGNBAgent checks that a federated instance's E2
// node is the shipped gNB agent, not a stand-in: injected telemetry is
// scored, the agent's own series move, every evidence chain of the node
// carries the agent's emit event (per-UE, at most DefaultBatchRecords,
// digest over exactly the records it names), and stopping the instance
// stops the node.
func TestInstanceRunsShippedGNBAgent(t *testing.T) {
	models, mixed := testEnv(t)
	store := sdl.New()
	ledger := prov.New(prov.Options{Store: store})
	prev := prov.SetActive(ledger)
	defer func() {
		prov.SetActive(prev)
		ledger.Close()
	}()

	inst, err := StartInstance(InstanceOptions{ID: "ric-agent", Models: models})
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Stop()
	node := inst.GNB().NodeID()
	if node != "gnb-ric-agent" {
		t.Fatalf("node ID = %q", node)
	}

	// 201 records spread over 3 UEs: 67 each, so a UE's share of one
	// flush can exceed the agent's per-indication cap.
	injected := append(mobiflow.Trace(nil), mixed.Trace[:201]...)
	bySeq := map[uint64]int{}
	for n := range injected {
		injected[n].Seq = uint64(n + 1)
		injected[n].UEID = uint64(1 + n%3)
		bySeq[injected[n].Seq] = n
	}
	sentBefore := indicationsSent(node)
	inst.GNB().InjectTelemetry(injected)
	deadline := time.Now().Add(5 * time.Second)
	for inst.Records() < uint64(len(injected)) {
		if time.Now().After(deadline) {
			t.Fatalf("scored %d/%d injected records", inst.Records(), len(injected))
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got := indicationsSent(node); got <= sentBefore {
		t.Errorf("xsec_gnb_indications_sent_total{node=%q} did not move (%v -> %v)", node, sentBefore, got)
	}

	ledger.Flush()
	chains, named := 0, 0
	for _, id := range prov.StoredChains(store) {
		if id.Node != node {
			continue
		}
		chains++
		c, err := prov.ReadChain(store, id)
		if err != nil {
			t.Fatal(err)
		}
		// Ledger order is arrival order, so the RIC's indication event
		// may precede the emit it answers; the root is the one emit.
		var emits []prov.Event
		for _, ev := range c.Events {
			if ev.Kind == prov.KindEmit {
				emits = append(emits, ev)
			}
		}
		if len(emits) != 1 {
			t.Fatalf("chain %s has %d emit events, want 1", id, len(emits))
		}
		emit := emits[0]
		if emit.Records == 0 || emit.Records > gnb.DefaultBatchRecords {
			t.Errorf("chain %s: emit carries %d records, want 1..%d", id, emit.Records, gnb.DefaultBatchRecords)
		}
		first, ok := bySeq[emit.SeqFirst]
		if !ok {
			t.Fatalf("chain %s: emit names unknown first seq %d", id, emit.SeqFirst)
		}
		var batch mobiflow.Trace
		for _, rec := range injected[first:] {
			if rec.Seq > emit.SeqLast {
				break
			}
			if rec.UEID == injected[first].UEID {
				batch = append(batch, rec)
			}
		}
		if uint32(len(batch)) != emit.Records {
			t.Errorf("chain %s: emit says %d records, seq range %d..%d holds %d of UE %d",
				id, emit.Records, emit.SeqFirst, emit.SeqLast, len(batch), injected[first].UEID)
		}
		if got := prov.DigestRecords(batch); got != emit.Digest {
			t.Errorf("chain %s: emit digest %s, records digest %s", id, emit.Digest, got)
		}
		named += len(batch)
	}
	if chains == 0 {
		t.Fatal("ledger holds no chain of the instance's node")
	}
	if named != len(injected) {
		t.Errorf("emit events name %d records, injected %d", named, len(injected))
	}

	// A stopped instance's node reports nothing further.
	inst.Stop()
	scored := inst.Records()
	inst.GNB().InjectTelemetry(injected[:4])
	time.Sleep(5 * reportPeriod)
	if got := inst.Records(); got != scored {
		t.Errorf("records after Stop: %d -> %d", scored, got)
	}
}
