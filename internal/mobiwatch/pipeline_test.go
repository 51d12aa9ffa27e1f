package mobiwatch

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/e2ap"
	"github.com/6g-xsec/xsec/internal/e2sm"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/ric"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// perIndication is how many records each hand-built indication of the
// pipeline tests carries.
const perIndication = 3

// indicate sends indication sn, carrying perIndication benign records with
// sequence numbers of its own.
func (n *garbageNode) indicate(t testing.TB, reqID e2ap.RequestID, benign mobiflow.Trace, sn uint64) {
	t.Helper()
	batch := make(mobiflow.Trace, perIndication)
	for i := range batch {
		batch[i] = benign[(int(sn)*perIndication+i)%len(benign)]
		batch[i].Seq = sn*perIndication + uint64(i) + 1
	}
	if err := n.ep.Send(&e2ap.Message{
		Type: e2ap.TypeIndication, RequestID: reqID, IndicationSN: sn,
		IndicationMessage: e2sm.EncodeIndicationMessage(&e2sm.IndicationMessage{Records: batch}),
	}); err != nil {
		t.Fatal(err)
	}
}

func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// TestStalledScorerBacksUpIntoCountedDrops holds the scoring stage still
// (a threshold update that never finishes) and floods the shard. Intake
// fills the hand-off and then blocks, having persisted no more than it
// could hand over; the shard queue fills behind it; everything after that
// is dropped by the RIC, where drops are counted. Released, the pipeline
// scores exactly what was routed: shipped = seen + dropped, one batch per
// routed indication is in the SDL, and its batches hold what was scored.
// The two stages' series say which one was the bottleneck meanwhile.
func TestStalledScorerBacksUpIntoCountedDrops(t *testing.T) {
	benign, _, models := fixtures(t)
	store := sdl.New()
	p := ric.NewPlatform(store)
	defer p.Close()
	node := startGarbageNode(t, p)
	waitReady(t, p)
	x, err := p.RegisterXApp("mobiwatch-stall")
	if err != nil {
		t.Fatal(err)
	}
	const shardBuffer = 8
	rt, err := Run(x, models, RunOptions{NodeID: "garbage-node", ShardBuffer: shardBuffer})
	if err != nil {
		t.Fatal(err)
	}
	reqID := <-node.subs
	depth := obsHandoffDepth.With("garbage-node")
	intake0, score0 := obsIntakeSeconds.Count(), obsScoreSeconds.Count()

	// In flight while the scorer is stalled: the batch it holds, the
	// hand-off, the batch intake is blocked sending — fed one at a time,
	// so that intake has taken each from the shard queue — and then, all
	// at once, the shard queue's worth and forty more.
	const upstream = 1 + handoffDepth + 1
	const absorbed = upstream + shardBuffer
	const sent = absorbed + 40
	rt.thMu.Lock()
	for sn := uint64(0); sn < sent; sn++ {
		node.indicate(t, reqID, benign, sn)
		if sn < upstream {
			eventually(t, "intake has admitted the indication", func() bool { return obsIntakeSeconds.Count()-intake0 == sn+1 })
		}
	}
	m := p.Metrics()
	eventually(t, "every indication is routed or dropped", func() bool {
		return m.IndicationsRouted.Load()+m.IndicationsDropped.Load() == sent
	})
	routed, dropped := m.IndicationsRouted.Load(), m.IndicationsDropped.Load()
	if routed != absorbed || dropped != sent-absorbed {
		t.Errorf("%d routed and %d dropped of %d sent into a stalled pipeline that holds %d", routed, dropped, sent, absorbed)
	}
	// The gauge counts the batch intake is blocked handing over as well.
	eventually(t, "the hand-off is full and intake blocked on it", func() bool { return depth.Value() == handoffDepth+1 })
	if n := obsIntakeSeconds.Count() - intake0; n != upstream {
		t.Errorf("intake admitted %d indications against a stalled scorer, want it blocked after %d", n, upstream)
	}
	if got, recs := store.Len(TelemetryNamespace), persistedRecords(t, store); got != upstream || recs != upstream*perIndication {
		t.Errorf("%d batches of %d records persisted ahead of a stalled scorer, want the %d of %d the hand-off lets intake reach",
			got, recs, upstream, upstream*perIndication)
	}
	if seen := rt.stats.RecordsSeen.Load(); seen != 0 {
		t.Errorf("%d records scored while the scorer was held", seen)
	}
	var sb strings.Builder
	if err := obs.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("xsec_mobiwatch_handoff_depth{node=\"garbage-node\"} %d\n", handoffDepth+1),
		"xsec_mobiwatch_intake_seconds_count ",
		"xsec_mobiwatch_score_seconds_count ",
		"# HELP xsec_mobiwatch_score_seconds Scoring-stage time",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	rt.thMu.Unlock()
	eventually(t, "everything routed is scored", func() bool { return rt.stats.BatchesHandled.Load() == routed })
	if err := rt.Stop(); err != nil {
		t.Fatal(err)
	}
	seen := rt.stats.RecordsSeen.Load()
	if seen+dropped*perIndication != sent*perIndication {
		t.Errorf("shipped %d records ≠ seen %d + dropped %d", sent*perIndication, seen, dropped*perIndication)
	}
	if got, recs := store.Len(TelemetryNamespace), persistedRecords(t, store); uint64(got)+store.Evicted(TelemetryNamespace) != routed || uint64(recs) != seen {
		t.Errorf("%d batches of %d records persisted (%d evicted) for %d routed indications, %d records scored",
			got, recs, store.Evicted(TelemetryNamespace), routed, seen)
	}
	if in, sc := obsIntakeSeconds.Count()-intake0, obsScoreSeconds.Count()-score0; in != routed || sc < routed {
		t.Errorf("%d intake and %d score observations for %d routed indications", in, sc, routed)
	}
	if depth.Value() != 0 {
		t.Errorf("hand-off depth reads %v after the drain", depth.Value())
	}
}

// TestStopMidStreamDrainsBothStages stops the runtime while indications
// are still arriving. Stop returns only when intake has emptied the shard
// queue, the scorer has emptied the hand-off and both goroutines are gone;
// nothing is left between the stages, so every batch that reached the SDL
// was scored, and every indication sent is routed or counted as dropped.
func TestStopMidStreamDrainsBothStages(t *testing.T) {
	benign, _, models := fixtures(t)
	store := sdl.New()
	p := ric.NewPlatform(store)
	defer p.Close()
	node := startGarbageNode(t, p)
	waitReady(t, p)
	x, err := p.RegisterXApp("mobiwatch-stop")
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	rt, err := Run(x, models, RunOptions{NodeID: "garbage-node", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	reqID := <-node.subs

	const sent = 600
	sending := make(chan struct{})
	go func() {
		defer close(sending)
		for sn := uint64(0); sn < sent; sn++ {
			node.indicate(t, reqID, benign, sn)
		}
	}()
	eventually(t, "the stream is under way", func() bool { return rt.stats.BatchesHandled.Load() >= 50 })
	if err := rt.Stop(); err != nil {
		t.Fatal(err)
	}
	seen, batches, persisted := rt.stats.RecordsSeen.Load(), store.Len(TelemetryNamespace), persistedRecords(t, store)
	<-sending

	m := p.Metrics()
	eventually(t, "every indication is routed or dropped", func() bool {
		return m.IndicationsRouted.Load()+m.IndicationsDropped.Load() == sent
	})
	if routed := m.IndicationsRouted.Load(); seen != routed*perIndication || uint64(batches) != routed || uint64(persisted) != seen {
		t.Errorf("%d indications routed (%d records), %d records scored, %d persisted in %d batches: Stop left records between the stages",
			routed, routed*perIndication, seen, persisted, batches)
	}
	if rt.stats.RecordsSeen.Load() != seen || store.Len(TelemetryNamespace) != batches {
		t.Error("a stage was still working after Stop returned")
	}
	eventually(t, "the runtime's goroutines are gone", func() bool { return runtime.NumGoroutine() <= before })
	for _, w := range rt.workers {
		if _, open := <-w.handoff; open {
			t.Error("a hand-off is still open after Stop")
		}
	}
}

// BenchmarkWorkerIntake times the intake stage on one nine-record
// indication — the gNB agent's usual batch: decode plus one SDL write per
// indication into the bounded telemetry namespace.
func BenchmarkWorkerIntake(b *testing.B) {
	benign, err := dataset.GenerateBenign(dataset.BenignConfig{Sessions: 4, Fleet: 2, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	store := sdl.New()
	x, err := ric.NewPlatform(store).RegisterXApp("intake-bench")
	if err != nil {
		b.Fatal(err)
	}
	store.Bound(TelemetryNamespace, TelemetryBytes)
	w := &worker{rt: &Runtime{xapp: x}}
	batch := append(mobiflow.Trace(nil), benign[:9]...)
	ind := ric.Indication{NodeID: "gnb-bench"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := range batch {
			batch[k].Seq = uint64(i*len(batch) + k + 1)
		}
		ind.SN, ind.Message = uint64(i), e2sm.EncodeIndicationMessage(&e2sm.IndicationMessage{Records: batch})
		b.StartTimer()
		if _, ok := w.admit(ind); !ok {
			b.Fatal("intake refused a valid indication")
		}
	}
}
