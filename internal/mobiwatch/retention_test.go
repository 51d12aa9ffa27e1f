package mobiwatch

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/e2ap"
	"github.com/6g-xsec/xsec/internal/e2sm"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/ric"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// retentionWorker is one worker outside a Runtime's goroutines, driven
// through feed as its two stages drive it, on a store bounded as Run
// bounds it.
func retentionWorker(t *testing.T, node string) (*worker, *sdl.Store) {
	t.Helper()
	return boundedWorker(t, node, TelemetryBytes)
}

// boundedWorker is retentionWorker with the telemetry namespace bounded
// at maxBytes.
func boundedWorker(t *testing.T, node string, maxBytes int) (*worker, *sdl.Store) {
	t.Helper()
	_, _, models := fixtures(t)
	store := sdl.New()
	x, err := ric.NewPlatform(store).RegisterXApp("retention")
	if err != nil {
		t.Fatal(err)
	}
	store.Bound(TelemetryNamespace, maxBytes)
	rt := &Runtime{models: models, opts: RunOptions{NodeID: node}, xapp: x}
	rt.triage = newAlertQueue(&rt.stats, obsQueueDepth.With(node), time.Now)
	return newWorker(rt), store
}

// feed puts one indication carrying batch through both of the worker's
// stages on the caller's goroutine: admit, the intake entry point, decodes
// the payload and persists it; ingest scores what it decoded, and the
// batch goes back to intake.
func feed(t testing.TB, w *worker, ind ric.Indication, batch mobiflow.Trace) {
	t.Helper()
	ind.Message = mobiflow.EncodeTrace(batch)
	b, ok := w.admit(ind)
	if !ok {
		t.Fatalf("intake refused indication %d", ind.SN)
	}
	w.ingest(b.ind, b.records)
	w.recycle(b.records)
}

// persistedRecords decodes every batch the telemetry namespace holds and
// returns how many records they carry, failing on a batch that does not
// decode or is not stored under its first record's sequence number.
func persistedRecords(t testing.TB, store *sdl.Store) int {
	t.Helper()
	n := 0
	for k, v := range store.GetAll(TelemetryNamespace, "") {
		tr, err := mobiflow.DecodeTraceInto(nil, v)
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
		msgs = append(msgs, mobiflow.EncodeTrace(batch))
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
	// stored copy beyond the strings its records decode to.
	const runs = 2000
	fresh, _ := nineRecordBatches(benign, runs+1, last[len(last)-1].Seq+1)
	evictedBefore := store.Evicted(TelemetryNamespace)
	i := 0
	admit := func() {
		sent++
		d, ok := w.admit(ric.Indication{NodeID: node, SN: uint64(sent), Message: fresh[i]})
		if !ok {
			t.Fatalf("intake refused indication %d", sent)
		}
		w.recycle(d.records)
		i++
	}
	j := 0
	var into mobiflow.Trace
	decode := func() {
		var err error
		if into, err = e2sm.DecodeIndicationInto(into, fresh[j%len(fresh)]); err != nil {
			t.Fatal(err)
		}
		j++
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
// costs the live heap: the key, the one stored copy of the message as it
// arrived over E2 and the store's entry, shared by the nine records an
// indication carries (≈ 34 B; ≈ 36 B when the store kept the E2 frame
// the message is a view of, ≈ 118 B when the message spent 87 B a record
// on per-record fields).
func TestTelemetryRetainedBytesPerRecord(t *testing.T) {
	benign, _, _ := fixtures(t)
	const node = "gnb-heap"
	w, store := retentionWorker(t, node)
	tx, rx := e2ap.Pipe()
	defer tx.Close()
	admit := func(msgs [][]byte) {
		for sn, msg := range msgs {
			// Through E2, as the RIC receives it.
			err := tx.Send(&e2ap.Message{Type: e2ap.TypeIndication, IndicationSN: uint64(sn + 1), IndicationMessage: msg})
			if err != nil {
				t.Fatal(err)
			}
			m, err := rx.Recv()
			if err != nil {
				t.Fatal(err)
			}
			d, ok := w.admit(ric.Indication{NodeID: node, SN: uint64(sn + 1), Message: m.IndicationMessage})
			if !ok {
				t.Fatalf("intake refused indication %d", sn+1)
			}
			w.recycle(d.records)
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

// TestPaddedFramesStayWithinTheBound: an E2 node that pads every
// indication, a 32 KiB IndicationHeader around a one-record message, gets
// no more of the live heap than the telemetry namespace's bound, because
// the store keeps a copy of each message and not the frame it is a view
// of. Kept frames would hold ≈ 300 of them, ≈ 12 MB, under a 64 KiB
// bound.
func TestPaddedFramesStayWithinTheBound(t *testing.T) {
	benign, _, _ := fixtures(t)
	const (
		node  = "gnb-pad"
		bound = 64 << 10
		pad   = 32 << 10
	)
	w, store := boundedWorker(t, node, bound)
	tx, rx := e2ap.Pipe()
	defer tx.Close()
	sn := uint64(0)
	admit := func(n int, header []byte) {
		for range n {
			sn++
			rec := benign[int(sn)%len(benign)]
			rec.Seq = sn
			err := tx.Send(&e2ap.Message{Type: e2ap.TypeIndication, IndicationSN: sn,
				IndicationHeader: header, IndicationMessage: mobiflow.EncodeTrace(mobiflow.Trace{rec})})
			if err != nil {
				t.Fatal(err)
			}
			m, err := rx.Recv()
			if err != nil {
				t.Fatal(err)
			}
			d, ok := w.admit(ric.Indication{NodeID: node, SN: sn, Header: m.IndicationHeader, Message: m.IndicationMessage})
			if !ok {
				t.Fatalf("intake refused indication %d", sn)
			}
			w.recycle(d.records)
		}
	}
	// Unpadded frames fill the namespace, its maps and the span tracer's
	// ring; padded ones then replace every entry it holds.
	admit(2000, nil)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept, evicted := store.Len(TelemetryNamespace), store.Evicted(TelemetryNamespace)
	admit(2000, make([]byte, pad))
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got := store.Evicted(TelemetryNamespace) - evicted; got < uint64(2*kept) {
		t.Fatalf("the padded round evicted %d entries, want every one of the %d kept twice over", got, kept)
	}
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("%d indications kept, charged %d B; padded frames grew the live heap %d B", store.Len(TelemetryNamespace), store.Bytes(TelemetryNamespace), grew)
	if grew > bound {
		t.Errorf("padded indications grew the live heap by %d B, want at most the %d B bound", grew, bound)
	}
}
