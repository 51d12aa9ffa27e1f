package mobiwatch

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/e2ap"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/prov"
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
		IndicationMessage: mobiflow.EncodeTrace(batch),
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

// stallRig is a runtime over a hand-driven E2 node.
type stallRig struct {
	rt     *Runtime
	node   *garbageNode
	reqID  e2ap.RequestID
	benign mobiflow.Trace
	store  *sdl.Store
	plat   *ric.Platform
	sn     uint64 // next indication to send

	stopped bool
}

// warmIndications is how many indications fill the history past the
// LSTM's span (Window+1 records; 4 by default).
const warmIndications = 2

func newStallRig(t *testing.T, queueDepth int) *stallRig {
	t.Helper()
	benign, _, models := fixtures(t)
	store := sdl.New()
	p := ric.NewPlatform(store)
	t.Cleanup(p.Close)
	node := startGarbageNode(t, p)
	waitReady(t, p)
	x, err := p.RegisterXApp("mobiwatch-stall")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Run(x, models, RunOptions{NodeID: "garbage-node", queueDepth: queueDepth})
	if err != nil {
		t.Fatal(err)
	}
	r := &stallRig{rt: rt, node: node, reqID: <-node.subs, benign: benign, store: store, plat: p}
	t.Cleanup(func() { r.stop(t) })
	return r
}

// stop stops the runtime once; the rig's cleanup does it if the test has
// not, after releasing any lane the test still holds.
func (r *stallRig) stop(t *testing.T) {
	t.Helper()
	if r.stopped {
		return
	}
	r.stopped = true
	if err := r.rt.Stop(); err != nil {
		t.Error(err)
	}
}

// warm sends what fills the history, so that every further record
// completes a window for each model: each indication sent from here on
// is perIndication windows per model, cut into one job.
func (r *stallRig) warm(t *testing.T) {
	t.Helper()
	if w := r.rt.models.Window; w+1 > warmIndications*perIndication {
		t.Fatalf("window %d: the warm-up does not fill the LSTM's span", w)
	}
	for r.sn < warmIndications {
		r.send(t)
	}
	eventually(t, "the warm-up is scored", func() bool {
		return r.rt.stats.RecordsSeen.Load() == warmIndications*perIndication
	})
}

func (r *stallRig) send(t *testing.T) {
	r.node.indicate(t, r.reqID, r.benign, r.sn)
	r.sn++
}

// hold takes the threshold write locks of the lanes named, so that each
// stalls at its next job, and returns what releases them; a test that
// fails holding them has them released by its cleanup.
func (r *stallRig) hold(t *testing.T, lanes ...int) (release func()) {
	for _, i := range lanes {
		r.rt.thMu[i].Lock()
	}
	var once sync.Once
	release = func() {
		once.Do(func() {
			for _, i := range lanes {
				r.rt.thMu[i].Unlock()
			}
		})
	}
	t.Cleanup(release)
	return release
}

// fillLanes sends one indication per job until the window stage is
// blocked handing a job to the first held lane: that lane holds the job
// it stalled on plus laneDepth queued, and the window stage the one it
// cannot hand over. A free lane scores each job as it comes.
func (r *stallRig) fillLanes(t *testing.T, held int) {
	t.Helper()
	for k := 0; k < laneDepth+1; k++ {
		passes := obsScoreWindow.Count()
		r.send(t)
		eventually(t, "the window stage has handed the job over", func() bool { return obsScoreWindow.Count() == passes+1 })
	}
	r.send(t)
	depth := r.rt.worker.lanes[held].depth
	eventually(t, "the held lane is full and the window stage blocked on it", func() bool { return depth.Value() == laneDepth+1 })
}

// TestStalledScorerBacksUpIntoCountedDrops holds both lanes still (a
// threshold update that never finishes) and floods the runtime. The window
// stage fills the lanes and blocks, intake fills the hand-off and then
// blocks, having persisted no more than it could hand over; the
// subscription queue fills behind it; everything after that is dropped by the RIC,
// where drops are counted. Released, the pipeline scores exactly what was
// routed: shipped = seen + dropped, one batch per routed indication is in
// the SDL, and its batches hold what was scored. The stages' series say
// which one was the bottleneck meanwhile.
func TestStalledScorerBacksUpIntoCountedDrops(t *testing.T) {
	stallBacksUpIntoCountedDrops(t, 0, 1)
}

// TestStalledLaneBacksUpIntoCountedDrops is the same with one lane held
// and the other free: the free lane scores every job it is handed, but no
// record is seen before both lanes have scored it, and the held lane alone
// backs the stream up into counted drops.
func TestStalledLaneBacksUpIntoCountedDrops(t *testing.T) {
	for _, held := range []int{0, 1} {
		t.Run(string([]ModelName{ModelAE, ModelLSTM}[held]), func(t *testing.T) {
			stallBacksUpIntoCountedDrops(t, held)
		})
	}
}

func stallBacksUpIntoCountedDrops(t *testing.T, held ...int) {
	const queueDepth = 8
	r := newStallRig(t, queueDepth)
	r.warm(t)
	rt, store := r.rt, r.store
	w := rt.worker
	depth := obsHandoffDepth.With("garbage-node")
	m := r.plat.Metrics()
	routed0 := m.IndicationsRouted.Load()
	seen0, windows0 := rt.stats.RecordsSeen.Load(), rt.stats.WindowsScored.Load()
	intake0, window0 := obsIntakeSeconds.Count(), obsScoreWindow.Count()

	// In flight while a lane is stalled: the jobs the window stage has cut
	// for it — fed one indication each — then the hand-off, the batch
	// intake is blocked sending — fed one at a time, so that intake has
	// taken each from the subscription queue — and then, all at once, the
	// queue's worth and forty more.
	const jobs = laneDepth + 2
	const upstream = jobs + handoffDepth + 1
	const absorbed = upstream + queueDepth
	const sent = absorbed + 40
	release := r.hold(t, held...)
	r.fillLanes(t, held[0])
	for k := jobs; k < upstream; k++ {
		admitted := obsIntakeSeconds.Count()
		r.send(t)
		eventually(t, "intake has admitted the indication", func() bool { return obsIntakeSeconds.Count() == admitted+1 })
	}
	for k := upstream; k < sent; k++ {
		r.send(t)
	}
	eventually(t, "every indication is routed or dropped", func() bool {
		return m.IndicationsRouted.Load()-routed0+m.IndicationsDropped.Load() == sent
	})
	routed, dropped := m.IndicationsRouted.Load()-routed0, m.IndicationsDropped.Load()
	if routed != absorbed || dropped != sent-absorbed {
		t.Errorf("%d routed and %d dropped of %d sent into a stalled pipeline that holds %d", routed, dropped, sent, absorbed)
	}
	// The gauges count the batch and the job blocked in a hand-over too.
	eventually(t, "the hand-off is full and intake blocked on it", func() bool { return depth.Value() == handoffDepth+1 })
	if n := obsIntakeSeconds.Count() - intake0; n != upstream {
		t.Errorf("intake admitted %d indications against a stalled lane, want it blocked after %d", n, upstream)
	}
	if got, recs := store.Len(TelemetryNamespace), persistedRecords(t, store); got != warmIndications+upstream || recs != (warmIndications+upstream)*perIndication {
		t.Errorf("%d batches of %d records persisted ahead of a stalled lane, want the %d of %d the hand-off lets intake reach",
			got, recs, warmIndications+upstream, (warmIndications+upstream)*perIndication)
	}
	if seen := rt.stats.RecordsSeen.Load(); seen != seen0 {
		t.Errorf("%d records seen while a lane was held", seen-seen0)
	}
	// A free lane scores every job the window stage has handed it: all
	// of them if it comes before the held lane, all but the one the
	// window stage is blocked on if after.
	var wantWindows uint64
	wantDepth := [2]float64{}
	for _, i := range held {
		wantDepth[i] = laneDepth
	}
	wantDepth[held[0]] = laneDepth + 1
	if len(held) == 1 {
		wantWindows = (jobs - 1) * perIndication
		if held[0] == 1 {
			wantWindows = jobs * perIndication
		}
	}
	eventually(t, "a free lane has scored what it was handed", func() bool {
		return rt.stats.WindowsScored.Load()-windows0 == wantWindows
	})
	for i := range w.lanes {
		if got := w.lanes[i].depth.Value(); got != wantDepth[i] {
			t.Errorf("lane %d reads depth %v with lanes %v held, want %v", i, got, held, wantDepth[i])
		}
	}
	var sb strings.Builder
	if err := obs.Default.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("xsec_mobiwatch_handoff_depth{node=\"garbage-node\"} %d\n", handoffDepth+1),
		fmt.Sprintf("xsec_mobiwatch_lane_depth{node=\"garbage-node\",model=%q} %d\n", w.lanes[held[0]].batch.model, laneDepth+1),
		"xsec_mobiwatch_intake_seconds_count ",
		"xsec_mobiwatch_score_seconds_count{stage=\"window\"} ",
		"xsec_mobiwatch_score_seconds_count{stage=\"ae\"} ",
		"xsec_mobiwatch_score_seconds_count{stage=\"lstm\"} ",
		"# HELP xsec_mobiwatch_score_seconds Scoring time by stage",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	release()
	eventually(t, "everything routed is taken", func() bool { return rt.stats.BatchesHandled.Load() == warmIndications+routed })
	r.stop(t)
	seen := rt.stats.RecordsSeen.Load()
	if shipped := r.sn * perIndication; seen+dropped*perIndication != shipped {
		t.Errorf("shipped %d records ≠ seen %d + dropped %d", shipped, seen, dropped*perIndication)
	}
	if got, recs := store.Len(TelemetryNamespace), persistedRecords(t, store); uint64(got)+store.Evicted(TelemetryNamespace) != warmIndications+routed || uint64(recs) != seen {
		t.Errorf("%d batches of %d records persisted (%d evicted) for %d routed indications, %d records scored",
			got, recs, store.Evicted(TelemetryNamespace), warmIndications+routed, seen)
	}
	if in, win := obsIntakeSeconds.Count()-intake0, obsScoreWindow.Count()-window0; in != routed || win != routed {
		t.Errorf("%d intake and %d window-stage observations for %d routed indications", in, win, routed)
	}
	if d0, d1 := w.lanes[0].depth.Value(), w.lanes[1].depth.Value(); depth.Value() != 0 || d0 != 0 || d1 != 0 {
		t.Errorf("hand-off depth reads %v and lane depths %v, %v after the drain", depth.Value(), d0, d1)
	}
}

// TestRecordsSeenWaitsForBothLanes pins when a record counts as seen: at
// once when its flush had no window to score, and otherwise only once
// both lanes have scored the job — whichever of the two finishes last.
func TestRecordsSeenWaitsForBothLanes(t *testing.T) {
	_, _, models := fixtures(t)
	if models.Window <= perIndication {
		t.Fatalf("window %d: the first indication completes a window", models.Window)
	}
	r := newStallRig(t, 0)
	r.warm(t)
	rt := r.rt
	for _, held := range []int{0, 1} {
		seen0, windows0 := rt.stats.RecordsSeen.Load(), rt.stats.WindowsScored.Load()
		release := r.hold(t, held)
		r.send(t)
		eventually(t, "the free lane has scored its windows", func() bool {
			return rt.stats.WindowsScored.Load()-windows0 == perIndication
		})
		if seen := rt.stats.RecordsSeen.Load(); seen != seen0 {
			t.Errorf("lane %d held: %d records seen with one lane still to score them", held, seen-seen0)
		}
		release()
		eventually(t, "the records are seen once both lanes have scored them", func() bool {
			return rt.stats.RecordsSeen.Load()-seen0 == perIndication
		})
		if n := rt.stats.WindowsScored.Load() - windows0; n != 2*perIndication {
			t.Errorf("lane %d held: %d windows scored, want %d", held, n, 2*perIndication)
		}
	}

	// A flush without windows — the first indication of a fresh runtime —
	// is seen at once, held lanes or not.
	fresh := newStallRig(t, 0)
	release := fresh.hold(t, 0, 1)
	fresh.send(t)
	eventually(t, "records without a window are seen at once", func() bool {
		return fresh.rt.stats.RecordsSeen.Load() == perIndication
	})
	release()
}

// TestThresholdChangeWhileLanesSaturated applies an A1 threshold policy
// while both lanes are full and the window stage is blocked handing them a
// job: the update waits only for the jobs the lanes are scoring, never
// for the window stage, which holds no threshold lock. (A window stage
// that held one while blocked on a full lane would deadlock against the
// waiting writer: the lane cannot read-lock past it to drain.)
func TestThresholdChangeWhileLanesSaturated(t *testing.T) {
	_, _, models := fixtures(t)
	ae0, lstm0 := models.AEThreshold, models.LSTMThreshold
	// The bundle is the package's shared fixture; this runs after the
	// rig has stopped.
	t.Cleanup(func() { models.AEThreshold, models.LSTMThreshold = ae0, lstm0 })
	r := newStallRig(t, 0)
	r.warm(t)
	rt := r.rt
	release := r.hold(t, 0, 1)
	r.fillLanes(t, 0)
	for k := 0; k < handoffDepth; k++ {
		r.send(t)
	}
	done := make(chan error, 1)
	go func() { done <- rt.SetThresholdPercentile(95) }()
	release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SetThresholdPercentile did not return while the lanes were full")
	}
	if ae, lstm := rt.Thresholds(); ae != models.AEQuantiles[95] || lstm != models.LSTMQuantiles[95] {
		t.Errorf("thresholds %g, %g after the update, want the 95th percentiles %g, %g", ae, lstm, models.AEQuantiles[95], models.LSTMQuantiles[95])
	}
	m := r.plat.Metrics()
	eventually(t, "everything sent is seen or counted as dropped", func() bool {
		return rt.stats.RecordsSeen.Load()+m.IndicationsDropped.Load()*perIndication == r.sn*perIndication
	})
}

// TestStopMidStreamDrainsBothStages stops the runtime while indications
// are still arriving. Stop returns only when intake has emptied the
// subscription queue, the window stage the hand-off and the lanes their
// queues, and all four of the worker's goroutines are gone; nothing is left between the stages,
// so every batch that reached the SDL was scored, and every indication
// sent is routed or counted as dropped.
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
	rt, err := Run(x, models, RunOptions{NodeID: "garbage-node"})
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
	w := rt.worker
	if _, open := <-w.handoff; open {
		t.Error("the hand-off is still open after Stop")
	}
	for i := range w.lanes {
		if _, open := <-w.lanes[i].in; open {
			t.Errorf("lane %d's queue is still open after Stop", i)
		}
	}
	if n := len(w.free); n > jobsInFlight {
		t.Errorf("%d jobs on a free list bounded at %d", n, jobsInFlight)
	}
	for _, model := range []ModelName{ModelAE, ModelLSTM} {
		if d := obsLaneDepth.With("garbage-node", string(model)).Value(); d != 0 {
			t.Errorf("%s lane depth reads %v after Stop", model, d)
		}
	}
}

// BenchmarkWorkerIntake times the intake stage on one nine-record
// indication — the gNB agent's usual batch: decode into the batch the
// window stage handed back, plus one SDL write per indication into the
// bounded telemetry namespace.
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
	w := &worker{rt: &Runtime{xapp: x}, spare: make(chan mobiflow.Trace, 1)}
	batch := append(mobiflow.Trace(nil), benign[:9]...)
	ind := ric.Indication{NodeID: "gnb-bench"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k := range batch {
			batch[k].Seq = uint64(i*len(batch) + k + 1)
		}
		ind.SN, ind.Message = uint64(i), mobiflow.EncodeTrace(batch)
		b.StartTimer()
		d, ok := w.admit(ind)
		if !ok {
			b.Fatal("intake refused a valid indication")
		}
		w.recycle(d.records)
	}
}

// BenchmarkWorkerIngest times the scoring work per record on nine-record
// indications of fixture benign telemetry: the window stage's
// worker.ingest (encode, enqueue the windows each record completes) plus
// the flush it runs when the hand-off is empty behind an indication,
// which cuts the job, and both lanes' pass over it — batched inference,
// evidence and alerts — run inline, as a worker whose lanes have no
// goroutines scores. It reports ns/rec, the sum of the three stages'
// work; allocs/op is 0, so jobs are recycled. Evidence goes to a closed
// ledger, which counts and drops it: what the ledger's writer does with an
// event is BenchmarkLedgerPersist's.
func BenchmarkWorkerIngest(b *testing.B) {
	benign, _, models := fixtures(b)
	ledger := prov.New(prov.Options{})
	ledger.Close()
	defer prov.SetActive(prov.SetActive(ledger))
	rt := &Runtime{models: models, opts: RunOptions{NodeID: "gnb-bench"}}
	rt.triage = newAlertQueue(&rt.stats, obsQueueDepth.With("gnb-bench"), time.Now)
	w := newWorker(rt)
	const perInd = 9
	batch := make(mobiflow.Trace, perInd)
	ind := ric.Indication{NodeID: "gnb-bench"}
	next := func(i int) {
		for k := range batch {
			j := i*perInd + k
			batch[k] = benign[j%len(benign)]
			batch[k].Seq = uint64(j + 1)
		}
		ind.SN = uint64(i)
	}
	for i := 0; i < 64; i++ { // fill the history and grow every buffer
		next(i)
		w.ingest(ind, batch)
		w.flush(ind.NodeID)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next(64 + i)
		w.ingest(ind, batch)
		w.flush(ind.NodeID)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*perInd), "ns/rec")
}

// TestIntakeReusesOnlyReturnedBatches runs a worker's intake goroutine
// against the test standing in for its window stage, which holds from one
// to five decoded batches at a time before it hands them back. Every batch
// holds exactly the records its indication carried until it is handed
// back, no two batches held at once share memory, and intake does decode
// into batches that were handed back. Under the race detector a write
// into a held batch is a reported race as well as a mismatch.
func TestIntakeReusesOnlyReturnedBatches(t *testing.T) {
	store := sdl.New()
	x, err := ric.NewPlatform(store).RegisterXApp("intake-reuse")
	if err != nil {
		t.Fatal(err)
	}
	store.Bound(TelemetryNamespace, TelemetryBytes)
	w := &worker{
		rt:      &Runtime{xapp: x},
		handoff: make(chan decoded, handoffDepth),
		spare:   make(chan mobiflow.Trace, handoffDepth+2),
		depth:   obsHandoffDepth.With("intake-reuse"),
	}
	const indications = 2000
	batchFor := func(sn uint64) mobiflow.Trace {
		batch := make(mobiflow.Trace, 1+sn%9)
		for i := range batch {
			batch[i] = mobiflow.Record{Seq: sn*16 + uint64(i), UEID: sn, Msg: "RRCSetupRequest", RNTI: 0x4601}
		}
		return batch
	}
	in := make(chan ric.Indication)
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.intake(in)
	}()
	go func() {
		for sn := uint64(1); sn <= indications; sn++ {
			in <- ric.Indication{NodeID: "gnb-reuse", SN: sn, Message: mobiflow.EncodeTrace(batchFor(sn))}
		}
		close(in)
	}()
	same := func(d decoded) bool {
		want := batchFor(d.ind.SN)
		if len(d.records) != len(want) {
			return false
		}
		for i := range want {
			if d.records[i] != want[i] {
				return false
			}
		}
		return true
	}
	var held []decoded
	handedOut := map[*mobiflow.Record]bool{} // every batch's first element
	reused, got := 0, 0
	for d := range w.handoff {
		w.depth.Add(-1)
		got++
		if !same(d) {
			t.Fatalf("indication %d decoded to %d records that are not the ones it carried", d.ind.SN, len(d.records))
		}
		first := &d.records[:1][0]
		for _, h := range held {
			if &h.records[:1][0] == first {
				t.Fatalf("indications %d and %d, both held, decoded into the same batch", h.ind.SN, d.ind.SN)
			}
		}
		if handedOut[first] {
			reused++
		}
		handedOut[first] = true
		held = append(held, d)
		if len(held) > int(d.ind.SN%5) {
			for _, h := range held {
				if !same(h) {
					t.Fatalf("indication %d's batch changed while the window stage held it", h.ind.SN)
				}
				w.recycle(h.records)
			}
			held = held[:0]
		}
	}
	<-done
	if got != indications {
		t.Fatalf("%d of %d indications handed over", got, indications)
	}
	if reused == 0 {
		t.Error("intake never decoded into a batch the window stage handed back")
	}
	t.Logf("%d of %d indications decoded into a batch handed back", reused, indications)
}
