package mobiwatch

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/asn1lite"
	"github.com/6g-xsec/xsec/internal/e2sm"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/ric"
	"github.com/6g-xsec/xsec/internal/rrc"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// retentionWorker is one worker outside a Runtime's goroutines, driven
// through feed as its two stages drive it, on a store bounded as Run
// bounds it.
func retentionWorker(t *testing.T, node string) (*worker, *sdl.Store) {
	t.Helper()
	_, _, models := fixtures(t)
	store := sdl.New()
	x, err := ric.NewPlatform(store).RegisterXApp("retention")
	if err != nil {
		t.Fatal(err)
	}
	store.Bound(TelemetryNamespace, TelemetryBytes)
	rt := &Runtime{models: models, opts: RunOptions{NodeID: node}, xapp: x}
	rt.triage = newAlertQueue(&rt.stats, obsQueueDepth.With(node), time.Now)
	return newWorker(rt), store
}

// feed puts one indication carrying batch through both of the worker's
// stages on the caller's goroutine: admit, the intake entry point, decodes
// the payload and persists it; ingest scores what it decoded.
func feed(t testing.TB, w *worker, ind ric.Indication, batch mobiflow.Trace) {
	t.Helper()
	ind.Message = e2sm.EncodeIndicationMessage(&e2sm.IndicationMessage{Records: batch})
	b, ok := w.admit(ind)
	if !ok {
		t.Fatalf("intake refused indication %d", ind.SN)
	}
	w.ingest(b.ind, b.records)
}

// persistedRecords decodes every batch the telemetry namespace holds and
// returns how many records they carry, failing on a batch that does not
// decode or is not stored under its first record's sequence number.
func persistedRecords(t testing.TB, store *sdl.Store) int {
	t.Helper()
	n := 0
	for k, v := range store.GetAll(TelemetryNamespace, "") {
		tr, err := mobiflow.DecodeTrace(v)
		if err != nil || len(tr) == 0 {
			t.Fatalf("stored batch %s: %d records, err %v", k, len(tr), err)
		}
		if node, _, _ := strings.Cut(k, "/"); k != string(persistKey(nil, node, tr[0].Seq)) {
			t.Fatalf("batch starting at seq %d stored under %s", tr[0].Seq, k)
		}
		n += len(tr)
	}
	return n
}

// nineRecordBatches returns n encoded indication messages of nine benign
// records each — the gNB agent's usual batch on attack_mix — numbered from
// seq onwards, and the last batch.
func nineRecordBatches(benign mobiflow.Trace, n int, seq uint64) (msgs [][]byte, last mobiflow.Trace) {
	batch := make(mobiflow.Trace, 9)
	for i := 0; i < n; i++ {
		for k := range batch {
			batch[k] = benign[int(seq)%len(benign)]
			batch[k].Seq = seq
			seq++
		}
		msgs = append(msgs, e2sm.EncodeIndicationMessage(&e2sm.IndicationMessage{Records: batch}))
	}
	return msgs, batch
}

// TestRunBoundsTelemetryNamespace: Run is what declares the bound, so a
// second declaration with the same value passes and any other is refused.
func TestRunBoundsTelemetryNamespace(t *testing.T) {
	_, _, models := fixtures(t)
	platform, _, _ := liveEnv(t)
	x, err := platform.RegisterXApp("mobiwatch-bound")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Run(x, models, RunOptions{NodeID: "gnb-live"})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	x.SDL().Bound(TelemetryNamespace, TelemetryBytes)
	defer func() {
		if recover() == nil {
			t.Error("Run left the telemetry namespace unbounded: a different bound was accepted")
		}
	}()
	x.SDL().Bound(TelemetryNamespace, 2*TelemetryBytes)
}

// TestTelemetryRetentionIsCounted pushes nine-record indications through
// intake until TelemetryBytes has been filled about three times over: the
// namespace is never charged more than the budget and ends near it,
// every indication is retained or counted as evicted, what is retained
// decodes to whole batches — more than twice the 65 536 records a key
// per record held in the same memory — the newest batch reads back
// byte-identical to the message that carried it, and the oldest is gone.
// Persisting into the full namespace, where each indication evicts, costs
// two allocations per indication.
func TestTelemetryRetentionIsCounted(t *testing.T) {
	benign, _, _ := fixtures(t)
	const node = "gnb-keep"
	w, store := retentionWorker(t, node)

	var (
		sent int
		msgs [][]byte
		last mobiflow.Trace
	)
	for sent == 0 || store.Evicted(TelemetryNamespace) < 2*uint64(store.Len(TelemetryNamespace)) {
		msgs, last = nineRecordBatches(benign, 4096, uint64(9*sent+1))
		for _, msg := range msgs {
			sent++
			if _, ok := w.admit(ric.Indication{NodeID: node, SN: uint64(sent), Message: msg}); !ok {
				t.Fatalf("intake refused indication %d", sent)
			}
		}
		if b := store.Bytes(TelemetryNamespace); b > TelemetryBytes {
			t.Fatalf("after %d indications the namespace is charged %d B, the budget is %d", sent, b, TelemetryBytes)
		}
	}

	live, evicted, charged := store.Len(TelemetryNamespace), store.Evicted(TelemetryNamespace), store.Bytes(TelemetryNamespace)
	if uint64(live)+evicted != uint64(sent) {
		t.Errorf("persisted %d indications ≠ retained %d + evicted %d", sent, live, evicted)
	}
	if charged < TelemetryBytes*9/10 {
		t.Errorf("the namespace is charged %d B after %d indications, want the budget %d or just under", charged, sent, TelemetryBytes)
	}
	if recs := persistedRecords(t, store); recs != 9*live || recs <= 2<<16 {
		t.Errorf("%d records retained in %d batches, want nine per batch and more than %d", recs, live, 2<<16)
	}
	data, _, ok := store.Get(TelemetryNamespace, string(persistKey(nil, node, last[0].Seq)))
	if !ok || !bytes.Equal(data, msgs[len(msgs)-1]) {
		t.Fatalf("the newest batch reads back as %d bytes (present %v), want the %d-byte message that carried it", len(data), ok, len(msgs[len(msgs)-1]))
	}
	if _, _, ok := store.Get(TelemetryNamespace, string(persistKey(nil, node, 1))); ok {
		t.Error("the oldest batch is still in the SDL")
	}

	// Into the full namespace every indication admits a new key and evicts
	// an old one, and intake still allocates only the key string and the
	// stored copy beyond decoding the payload and minting its trace key.
	const runs = 2000
	fresh, _ := nineRecordBatches(benign, runs+1, last[len(last)-1].Seq+1)
	evictedBefore := store.Evicted(TelemetryNamespace)
	i := 0
	admit := func() {
		sent++
		if _, ok := w.admit(ric.Indication{NodeID: node, SN: uint64(sent), Message: fresh[i]}); !ok {
			t.Fatalf("intake refused indication %d", sent)
		}
		i++
	}
	j := 0
	decode := func() {
		if _, err := e2sm.DecodeIndicationMessage(fresh[j%len(fresh)]); err != nil {
			t.Fatal(err)
		}
		j++
		traceKeySink = obs.IndicationKey(node, uint64(j))
	}
	if extra := testing.AllocsPerRun(runs, admit) - testing.AllocsPerRun(runs, decode); extra > 2 {
		t.Errorf("persisting into the full namespace allocates %.1f times per indication, want at most 2 (key + value)", extra)
	}
	if got := store.Evicted(TelemetryNamespace) - evictedBefore; got < runs {
		t.Errorf("%d indications admitted into the full namespace evicted %d batches, want at least %d", runs+1, got, runs)
	}
	if live, evicted := store.Len(TelemetryNamespace), store.Evicted(TelemetryNamespace); uint64(live)+evicted != uint64(sent) {
		t.Errorf("persisted %d indications ≠ retained %d + evicted %d", sent, live, evicted)
	}
	if b := store.Bytes(TelemetryNamespace); b > TelemetryBytes {
		t.Errorf("the namespace is charged %d B, the budget is %d", b, TelemetryBytes)
	}
}

// TestTelemetryRetainedBytesPerRecord pins what keeping telemetry at rest
// costs the live heap: the key, the one stored copy of the message and the
// store's entry, shared by the nine records an indication carries
// (≈ 34 B; ≈ 118 B when the message spent 87 B a record on per-record
// fields).
func TestTelemetryRetainedBytesPerRecord(t *testing.T) {
	benign, _, _ := fixtures(t)
	const node = "gnb-heap"
	w, store := retentionWorker(t, node)
	admit := func(msgs [][]byte) {
		for sn, msg := range msgs {
			if _, ok := w.admit(ric.Indication{NodeID: node, SN: uint64(sn + 1), Message: msg}); !ok {
				t.Fatalf("intake refused indication %d", sn+1)
			}
		}
	}
	// A first round fills the span tracer's ring, so it holds the same
	// number of trace keys before and after the measured round.
	warm, _ := nineRecordBatches(benign, 5000, 1)
	admit(warm)
	const n = 10_000
	msgs, _ := nineRecordBatches(benign, n, 1_000_000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	admit(msgs)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(msgs)
	if store.Evicted(TelemetryNamespace) != 0 {
		t.Fatal("the measured round evicted: it measures retention, not replacement")
	}
	perRecord := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (9 * n)
	t.Logf("%.0f B of live heap per persisted record (%d-byte nine-record messages)", perRecord, len(msgs[0]))
	if perRecord > 45 {
		t.Errorf("persisted telemetry costs %.0f B of live heap per record, want at most 45", perRecord)
	}
}

// TestIdleUEsAreForgotten sends one indication each from 100 000 UEs, ten
// milliseconds apart on the indications' own arrival clock. The worker's
// per-UE bookkeeping stays within two idle horizons' worth instead of
// growing with every UE seen; a UE that keeps talking, and one restored by
// a migration that has not spoken yet, are kept — the latter until its
// join has fired and it too falls silent.
func TestIdleUEsAreForgotten(t *testing.T) {
	benign, _, _ := fixtures(t)
	const (
		node     = "gnb-idle"
		step     = 10 * time.Millisecond
		perTurn  = int(ueIdleHorizon / step)
		talker   = uint64(1_000_001)
		restored = uint64(1_000_002)
	)
	w, _ := retentionWorker(t, node)
	t0 := time.Unix(1_700_000_000, 0)
	sn := uint64(0)
	send := func(ue uint64) {
		sn++
		// A released context, so that the feature encoder's own per-UE
		// state (its in-flight registration set) stays out of this test.
		rec := benign[int(sn)%len(benign)]
		rec.Seq, rec.UEID, rec.RRCState = sn, ue, rrc.StateReleased
		hdr := asn1lite.Marshal(&e2sm.IndicationHeader{NodeID: node, BatchSeq: sn, UEID: ue})
		feed(t, w, ric.Indication{NodeID: node, SN: sn, Header: hdr, ReceivedAt: t0.Add(time.Duration(sn) * step)},
			mobiflow.Trace{rec})
	}
	listed := func() int {
		op := ctrlOp{kind: ctrlList, reply: make(chan ctrlReply, 1)}
		w.handleCtrl(op)
		return len((<-op.reply).ues)
	}

	w.restore(&UESnapshot{UE: restored, Node: "gnb-src", LastSN: 9, Records: benign[:3]})
	most := 0
	for ue := uint64(1); ue <= 100_000; ue++ {
		send(ue)
		if ue%uint64(perTurn/3) == 0 {
			send(talker)
		}
		most = max(most, w.ues.len())
	}
	if limit := 2*perTurn + len(w.recent) + 2; most > limit || most < perTurn {
		t.Errorf("per-UE marks peaked at %d over 100 000 UEs, want between one horizon's worth (%d) and two (%d)", most, perTurn, limit)
	}
	if n := listed(); n != w.ues.len() {
		t.Errorf("ctrlList reports %d UEs, the worker holds %d", n, w.ues.len())
	}
	if _, ok := w.ues.get(1); ok {
		t.Error("a UE silent for three horizons is still held")
	}
	if _, ok := w.ues.get(talker); !ok {
		t.Error("a UE seen every third of a horizon was forgotten")
	}
	if m, ok := w.ues.get(restored); !ok || m.node != "gnb-src" || len(w.joins) != 1 {
		t.Fatalf("a restored UE awaiting its first indication was forgotten (mark %+v, held %v, %d joins)", m, ok, len(w.joins))
	}
	if snap, ok := w.checkpoint(restored); !ok || snap.Node != "gnb-src" || snap.LastSN != 9 {
		t.Errorf("checkpoint of the restored UE = %+v, %v; want its source chain forwarded", snap, ok)
	}

	send(restored) // the join fires; from here it is a UE like any other
	if len(w.joins) != 0 {
		t.Fatal("the restored UE's first indication did not fire its join")
	}
	for ue := uint64(200_001); ue <= 200_000+uint64(3*perTurn); ue++ {
		send(ue)
	}
	if _, ok := w.ues.get(restored); ok {
		t.Error("the once-restored UE is still held three horizons after it last spoke")
	}
}
