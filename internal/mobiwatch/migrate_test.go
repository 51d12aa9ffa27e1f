package mobiwatch

import (
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/nas"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/sdl"
	"github.com/6g-xsec/xsec/internal/ue"
)

func TestSnapshotRoundtrip(t *testing.T) {
	benign, _, _ := fixtures(t)
	snap := &UESnapshot{UE: 7, Node: "gnb-a", LastSN: 42, Records: benign[:5].FilterUE(benign[0].UEID)}
	if len(snap.Records) == 0 {
		snap.Records = benign[:5]
	}
	got, err := DecodeSnapshot(EncodeSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	if got.UE != snap.UE || got.Node != snap.Node || got.LastSN != snap.LastSN ||
		len(got.Records) != len(snap.Records) {
		t.Fatalf("roundtrip = %+v, want %+v", got, snap)
	}
	for i := range got.Records {
		if got.Records[i].Seq != snap.Records[i].Seq || got.Records[i].Msg != snap.Records[i].Msg {
			t.Fatalf("record %d = %+v, want %+v", i, got.Records[i], snap.Records[i])
		}
	}
	if _, err := DecodeSnapshot([]byte{0xff, 0x01, 0x02}); err == nil {
		t.Fatal("garbage snapshot decoded")
	}
}

// TestCheckpointRestoreUE exercises the worker-side migration surface:
// checkpoint copies one UE's state out of a live sharded runtime, forget
// drops the ownership, restore re-installs it, and the UE's next
// indication records the migration "in" link on its provenance chain.
func TestCheckpointRestoreUE(t *testing.T) {
	_, _, models := fixtures(t)

	store := sdl.New()
	ledger := prov.New(prov.Options{Store: store})
	defer prov.SetActive(prov.SetActive(ledger)).Close()

	platform, g, _ := liveEnv(t)
	x, err := platform.RegisterXApp("mobiwatch-migrate")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Run(x, models, RunOptions{
		NodeID:       "gnb-live",
		ReportPeriod: 5 * time.Millisecond,
		Shards:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()

	var k [nas.KeySize]byte
	copy(k[:], "migrate-test-key")
	attacker := ue.New("imsi-001010000000088", k, ue.OAIUE, 17)
	attacker.Profile.RetransProb = 0
	if _, err := attacker.RunBTSDoS(g, 6); err != nil {
		t.Fatal(err)
	}

	// Telemetry delivery is asynchronous; wait for UE state to appear.
	var ues []uint64
	deadline := time.Now().Add(5 * time.Second)
	for len(ues) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no UE state materialized")
		}
		time.Sleep(5 * time.Millisecond)
		ues = rt.UEs()
	}
	target := ues[0]

	snap, err := rt.CheckpointUE(target)
	if err != nil {
		t.Fatal(err)
	}
	if snap.UE != target || snap.Node != "gnb-live" || len(snap.Records) == 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	for _, rec := range snap.Records {
		if rec.UEID != target {
			t.Fatalf("snapshot leaked record of UE %d: %+v", rec.UEID, rec)
		}
	}
	if _, err := rt.CheckpointUE(999999); err == nil {
		t.Fatal("checkpoint of unknown UE succeeded")
	}

	if err := rt.ForgetUE(target); err != nil {
		t.Fatal(err)
	}
	for _, ue := range rt.UEs() {
		if ue == target {
			t.Fatal("forgotten UE still listed")
		}
	}
	if _, err := rt.CheckpointUE(target); err == nil {
		t.Fatal("checkpoint of forgotten UE succeeded")
	}

	// Restore through the wire form, as the federation bus would.
	wire, err := DecodeSnapshot(EncodeSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RestoreUE(wire); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ue := range rt.UEs() {
		if ue == target {
			found = true
		}
	}
	if !found {
		t.Fatal("restored UE not listed")
	}

	// A restored-but-never-rescored UE forwards the original source
	// chain when checkpointed again, so a multi-hop migration still
	// joins to where the scoring history actually lives. (The migration
	// "in" event on the next indication's chain is asserted end to end
	// by the federation tests, which control UE identity.)
	hop, err := rt.CheckpointUE(target)
	if err != nil {
		t.Fatal(err)
	}
	if hop.Node != snap.Node || hop.LastSN != snap.LastSN {
		t.Fatalf("double-hop checkpoint names chain %s/%d, want %s/%d",
			hop.Node, hop.LastSN, snap.Node, snap.LastSN)
	}
	if len(hop.Records) < len(snap.Records) {
		t.Fatalf("double-hop checkpoint lost records: %d < %d", len(hop.Records), len(snap.Records))
	}
}
