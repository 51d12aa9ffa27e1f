package mobiwatch

import (
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/asn1lite"
	"github.com/6g-xsec/xsec/internal/e2sm"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/nn"
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
	store.Bound(TelemetryNamespace, TelemetryCap)
	rt := &Runtime{models: models, opts: RunOptions{NodeID: node}, xapp: x}
	rt.triage = newAlertQueue(&rt.stats, obsQueueDepth.With(node), time.Now)
	return newWorker(rt, nn.Float32), store
}

// feed puts one indication carrying batch through both of the worker's
// stages on the caller's goroutine: admit, the intake entry point, decodes
// the payload and persists the records; ingest scores what it decoded.
func feed(t testing.TB, w *worker, ind ric.Indication, batch mobiflow.Trace) {
	t.Helper()
	ind.Message = e2sm.EncodeIndicationMessage(&e2sm.IndicationMessage{Records: batch})
	b, ok := w.admit(ind)
	if !ok {
		t.Fatalf("intake refused indication %d", ind.SN)
	}
	w.ingest(b.ind, b.records)
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
	x.SDL().Bound(TelemetryNamespace, TelemetryCap)
	defer func() {
		if recover() == nil {
			t.Error("Run left the telemetry namespace unbounded: a different bound was accepted")
		}
	}()
	x.SDL().Bound(TelemetryNamespace, 2*TelemetryCap)
}

// TestTelemetryRetentionIsCounted pushes three times TelemetryCap records
// through intake and ingest: the namespace holds at most the cap, what left is
// counted, the newest record reads back as it was sent, and a persist that
// evicts still costs its key and its value and nothing else.
func TestTelemetryRetentionIsCounted(t *testing.T) {
	benign, _, _ := fixtures(t)
	const node = "gnb-keep"
	w, store := retentionWorker(t, node)

	const total = 3 * TelemetryCap
	batch := make(mobiflow.Trace, 0, 16)
	var newest mobiflow.Record
	for seq, sn := uint64(1), uint64(1); seq <= total; sn++ {
		batch = batch[:0]
		for ; len(batch) < cap(batch) && seq <= total; seq++ {
			rec := benign[int(seq)%len(benign)]
			rec.Seq = seq
			batch = append(batch, rec)
		}
		newest = batch[len(batch)-1]
		feed(t, w, ric.Indication{NodeID: node, SN: sn}, batch)
	}

	live, evicted := store.Len(TelemetryNamespace), store.Evicted(TelemetryNamespace)
	if live > TelemetryCap || live < TelemetryCap*9/10 {
		t.Errorf("%d records retained of %d ingested, want the cap %d or just under", live, total, TelemetryCap)
	}
	if uint64(live)+evicted != total {
		t.Errorf("ingested %d ≠ retained %d + evicted %d", total, live, evicted)
	}
	data, _, ok := store.Get(TelemetryNamespace, string(persistKey(nil, node, newest.Seq)))
	if !ok {
		t.Fatal("the newest record is not in the SDL")
	}
	got, err := mobiflow.Decode(data)
	if err != nil || !got.Timestamp.Equal(newest.Timestamp) {
		t.Fatalf("newest record decodes to %+v, err %v; want %+v", got, err, newest)
	}
	if got.Timestamp = newest.Timestamp; got != newest {
		t.Errorf("newest record decodes to %+v, want %+v", got, newest)
	}
	if _, _, ok := store.Get(TelemetryNamespace, string(persistKey(nil, node, 1))); ok {
		t.Error("the oldest record is still in the SDL")
	}

	rec := newest
	if allocs := testing.AllocsPerRun(2000, func() {
		rec.Seq++
		w.persist(store, node, &rec)
	}); allocs > 2 {
		t.Errorf("persisting into the full namespace allocates %.2f times per record, want at most 2 (key + value)", allocs)
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
