package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/ue"
)

// TestStoredTelemetryMatchesTheEvidence runs an attack with the ledger on
// and joins the two accounts of what the gNB sent. Every batch MobiWatch
// keeps in the SDL decodes to the records whose digest the gNB agent put
// on the KindEmit event of the chain that names the batch's first record,
// and the newest batch reads back byte-identical to the indication message
// that carried it.
func TestStoredTelemetryMatchesTheEvidence(t *testing.T) {
	fw := newTrainedFramework(t)
	node := fw.GNB.NodeID()
	attacker := fw.NewUE(ue.OAIUE, 200)
	attacker.Profile.RetransProb = 0
	attacker.Pace = func() { fw.Clock().Advance(500 * time.Microsecond) }
	if _, err := attacker.RunBTSDoS(fw.GNB, 8); err != nil {
		t.Fatal(err)
	}

	// The last batch: one UE's records, numbered past anything the
	// simulator emits, injected in one go so that the agent ships them
	// as one indication.
	at := fw.Clock().Now()
	last := make(mobiflow.Trace, 5)
	for i := range last {
		last[i] = mobiflow.Record{Seq: 1<<40 + uint64(i), UEID: 900_001, Msg: "RRCSetupRequest",
			Timestamp: at.Add(time.Duration(i) * time.Millisecond)}
	}
	fw.GNB.InjectTelemetry(last)
	store, ns := fw.SDL, mobiwatch.TelemetryNamespace
	lastKey := fmt.Sprintf("%s/%020d", node, last[0].Seq)
	seen := &fw.WatchStats().RecordsSeen
	deadline := time.Now().Add(5 * time.Second)
	for n := uint64(0); ; {
		_, _, stored := store.Get(ns, lastKey)
		if now := seen.Load(); stored && now == n {
			break // the last batch is in and nothing moved for a while
		} else {
			n = now
		}
		if time.Now().After(deadline) {
			t.Fatalf("telemetry did not settle: last batch stored %v, %d records scored", stored, n)
		}
		time.Sleep(20 * time.Millisecond)
	}
	fw.Prov().Flush()

	emits := map[uint64]prov.Event{} // by SeqFirst
	for _, id := range prov.StoredChains(store) {
		if id.Node != node {
			continue
		}
		c, err := prov.ReadChain(store, id)
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range c.Events {
			if ev.Kind == prov.KindEmit {
				emits[ev.SeqFirst] = ev
			}
		}
	}
	batches, records := 0, 0
	for k, v := range store.GetAll(ns, node+"/") {
		tr, err := mobiflow.DecodeTraceInto(nil, v)
		if err != nil || len(tr) == 0 {
			t.Fatalf("stored batch %s: %d records, err %v", k, len(tr), err)
		}
		emit, ok := emits[tr[0].Seq]
		if !ok {
			t.Errorf("stored batch %s starts at seq %d, which no chain's emit names", k, tr[0].Seq)
			continue
		}
		if got := prov.DigestRecords(tr); got != emit.Digest || uint32(len(tr)) != emit.Records || tr[len(tr)-1].Seq != emit.SeqLast {
			t.Errorf("stored batch %s: %d records through seq %d, digest %v; its chain's emit says %d through %d, digest %v",
				k, len(tr), tr[len(tr)-1].Seq, got, emit.Records, emit.SeqLast, emit.Digest)
		}
		batches++
		records += len(tr)
	}
	if uint64(records) != seen.Load() || batches < 2 {
		t.Errorf("%d records in %d stored batches, %d scored", records, batches, seen.Load())
	}
	if data, _, _ := store.Get(ns, lastKey); !bytes.Equal(data, mobiflow.EncodeTrace(last)) {
		t.Errorf("the newest batch reads back as %d bytes, not the %d-byte message that carried it", len(data), len(mobiflow.EncodeTrace(last)))
	}
}
