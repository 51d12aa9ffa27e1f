package mobiwatch

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/6g-xsec/xsec/internal/asn1lite"
	"github.com/6g-xsec/xsec/internal/e2ap"
	"github.com/6g-xsec/xsec/internal/e2sm"
	"github.com/6g-xsec/xsec/internal/feature"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/ric"
)

// Detection-pipeline observability. Scoring runs per telemetry batch on
// the streaming hot path, so every handle is interned up front and each
// observation is a single atomic update.
var (
	obsRecords = obs.NewCounter("xsec_mobiwatch_records_total",
		"Telemetry records ingested by MobiWatch.")
	obsWindows = obs.NewCounter("xsec_mobiwatch_windows_scored_total",
		"Sliding windows scored across both detectors.")
	obsAnomalies = obs.NewCounterVec("xsec_mobiwatch_anomalies_total",
		"Windows whose score exceeded the detection threshold, by model.", "model")
	obsAnomalyAE   = obsAnomalies.With(string(ModelAE))
	obsAnomalyLSTM = obsAnomalies.With(string(ModelLSTM))
	obsAlerts      = obs.NewCounterVec("xsec_mobiwatch_alerts_total",
		"Flagged windows offered to the triage queue: refused at offer (dropped) or not (raised).", "outcome")
	obsAlertsRaised  = obsAlerts.With("raised")
	obsAlertsDropped = obsAlerts.With("dropped")
	obsBadBatches    = obs.NewCounter("xsec_mobiwatch_bad_batches_total",
		"E2 indication payloads that failed to decode.")
	obsQueueDepth = obs.NewGaugeVec("xsec_mobiwatch_alert_queue_depth",
		"Alerts waiting in the triage queue for an analyzer worker, by node.", "node")
	obsIntakeSeconds = obs.NewHistogram("xsec_mobiwatch_intake_seconds",
		"Intake-stage time per E2 indication: payload decode plus its one SDL write.", obs.ExpBuckets(1e-6, 4, 12))
	obsScoreSeconds = obs.NewHistogramVec("xsec_mobiwatch_score_seconds",
		"Scoring time by stage, each observing its own pass: window (feature encode and cutting each flush into a job, per decoded batch, not counting a wait on a full lane), ae and lstm (one lane's batched inference, evidence and alerts, per job). Decode and persist are xsec_mobiwatch_intake_seconds.", obs.ExpBuckets(1e-6, 4, 12), "stage")
	obsScoreWindow  = obsScoreSeconds.With("window")
	obsHandoffDepth = obs.NewGaugeVec("xsec_mobiwatch_handoff_depth",
		"Decoded, persisted batches the window stage has not taken yet, by node, counting the one an intake goroutine is blocked handing over: past the bound while scoring is the bottleneck, near zero while intake is.", "node")
	obsLaneDepth = obs.NewGaugeVec("xsec_mobiwatch_lane_depth",
		"Jobs the window stage has handed a model's lane and the lane has not taken yet, by node and model, counting the one the window stage is blocked handing over: past the bound while that lane is the bottleneck.", "node", "model")
	obsFlagSeconds = obs.NewHistogram("xsec_mobiwatch_flag_seconds",
		"E2 indication arrival to anomaly flag.", obs.DefLatencyBuckets)
	obsScoreMemo = obs.NewCounterVec("xsec_mobiwatch_score_memo_total",
		"Windows the scoring path's memo answered (hit), sent to the engine and kept (miss), or sent to the engine without a lookup while it stands aside on telemetry that does not repeat (bypassed), and kept scores it dropped to stay in its bound (evicted), by model; Train's calibration and offline scoring count too.", "model", "outcome")
)

// Alert is one flagged anomalous window, handed to the LLM Analyzer.
type Alert struct {
	// NodeID is the reporting gNB.
	NodeID string
	// Window is the anomalous record window (size N).
	Window mobiflow.Trace
	// Context is the surrounding telemetry (window plus preceding
	// records) the analyzer passes to the LLM (§3.3: "the sequence plus
	// its context window").
	Context mobiflow.Trace
	// Score, Threshold, and Model describe the detection.
	Score     float64
	Threshold float64
	Model     ModelName
	// At is when the detection fired.
	At time.Time
	// ReceivedAt is when the E2 indication that completed the flagged
	// window arrived at the RIC (zero for offline replays). The
	// analyzer uses it for the end-to-end detection-latency histogram.
	ReceivedAt time.Time
	// IndicationSN is that indication's sequence number; together with
	// NodeID it keys the pipeline trace spans.
	IndicationSN uint64
	// Folded is how many further flagged windows of the same episode the
	// triage queue folded into this alert while it waited: the case
	// stands for 1+Folded windows, of which this is the strongest.
	Folded int
	// Recalled is for a Take filter to note what it found out when asked
	// about this alert, so that whichever taker is handed the alert need
	// not find it out again (the analyzer's recall lane: the analysis the
	// expert gave from memory). MobiWatch neither sets nor reads it.
	Recalled any
}

// RunOptions configures the online xApp.
type RunOptions struct {
	// NodeID is the E2 node to subscribe to.
	NodeID string
	// ReportPeriod is the E2SM event-trigger period (default 50 ms,
	// inside the near-RT control loop).
	ReportPeriod time.Duration
	// Shards is the number of parallel scoring workers. Indications are
	// partitioned by the UE ID in their headers (per-UE batches are the
	// gNB agent's default), so records of one UE are always scored in
	// order by one worker while different UEs proceed in parallel. The
	// default 1 keeps the classic single sequential pipeline.
	Shards int
	// ShardBuffer bounds each shard's dispatch queue (default 256).
	ShardBuffer int
}

func (o *RunOptions) defaults() {
	if o.ReportPeriod == 0 {
		o.ReportPeriod = 50 * time.Millisecond
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.ShardBuffer <= 0 {
		o.ShardBuffer = 256
	}
}

const (
	// TelemetryNamespace is the SDL namespace MobiWatch keeps MobiFlow
	// telemetry in for other RIC services (§3.1): one value per admitted
	// E2 indication, the indication message exactly as it was decoded
	// (e2sm.DecodeIndicationMessage or mobiflow.DecodeTrace reads it
	// back), under "<node>/<first record's seq, 20 digits>".
	TelemetryNamespace = "mobiflow"
	// TelemetryBytes bounds that namespace (sdl.Store.Bound). A value costs
	// key + block + 160 B: benign telemetry cut per UE into indications of
	// ≤ 1, 9 or 16 records is charged ≈ 213, 33 or 27 B a record, so 16 MiB
	// holds the newest ≈ 79 000, 508 000 or 625 000 (at the agent's ≈ 9,
	// seconds at capacity, minutes at attack_mix rates). The record rate is
	// the attacker's to choose, so the bound is bytes, not an age.
	TelemetryBytes = 16 << 20

	// contextRecords is how much preceding telemetry each alert carries.
	contextRecords = 12
	// contextSpan bounds the context temporally: records older than this
	// (by telemetry timestamp) relative to the window start are excluded,
	// so stale incidents do not leak into a new analysis.
	contextSpan = time.Second
	// handoffDepth bounds, in indications, the FIFO between a shard's
	// intake goroutine and its window stage. The window stage flushes
	// whenever it finds the hand-off empty, so while the lanes are the
	// bottleneck a flush batches up to batchChunk windows (≈ 7 nine-record
	// indications) and intake can run this far ahead of the window stage's
	// longest pause, a wait on a full lane included; anything deeper is
	// queueing delay ahead of the score and records held decoded. A full
	// hand-off blocks intake, so the wait moves to the RIC's shard queue
	// (ShardBuffer), whose drops are counted.
	handoffDepth = 16
	// laneDepth bounds, in jobs, the FIFO from the window stage to each
	// lane. The lanes' passes differ in length and the window stage cuts
	// jobs in bursts, so a shallow queue has the window stage park on a
	// full lane and a lane park on an empty one, over and over: on a
	// 2-CPU host benign_capacity read ≈ 240 k rec/s at depths 2 and 4
	// against ≈ 260–275 k at 8, and 16 no better than 8 by more than the
	// spread between runs. Each job holds a copy of its flush's records.
	laneDepth = 8
	// jobsInFlight is how many jobs one worker can hold at once: a lane's
	// queue and the job it is scoring, for the lane furthest behind, plus
	// the one the window stage is cutting. The worker's free list keeps
	// that many for reuse.
	jobsInFlight = laneDepth + 2
)

// Stats counts xApp activity. A record is in RecordsSeen once both lanes
// have scored the windows it completed. Every flagged window is either
// AlertsDropped (refused at offer by a full triage queue it did not
// outrank) or AlertsRaised, and the queue accounts for each one:
// raised + dropped = taken + folded + shed (both reasons) + queued, where
// AlertsShedPriority includes the dropped.
type Stats struct {
	RecordsSeen    atomic.Uint64
	WindowsScored  atomic.Uint64
	AlertsRaised   atomic.Uint64
	AlertsDropped  atomic.Uint64
	BatchesHandled atomic.Uint64

	AlertsTaken        atomic.Uint64
	AlertsRecalled     atomic.Uint64 // of AlertsTaken: by a filtered Take
	AlertsFolded       atomic.Uint64
	AlertsShedPriority atomic.Uint64
	AlertsShedStale    atomic.Uint64
	AlertsQueued       atomic.Int64
}

// Runtime is a running MobiWatch instance.
type Runtime struct {
	models *Models
	opts   RunOptions
	xapp   *ric.XApp
	sub    *ric.Subscription

	triage *alertQueue
	stats  Stats

	// thMu guards the shared model thresholds, one lock per model in lane
	// order (AE, LSTM): a lane holds its model's read side per job,
	// SetThresholdPercentile both write sides.
	thMu    [2]sync.RWMutex
	workers []*worker
	done    chan struct{}
}

// worker is one shard's detection pipeline: all indications of a UE land
// on the same worker, in order. It runs as four goroutines. The intake
// stage (intake, admit) decodes each indication and persists it to the
// SDL, and hands it over the handoff channel to the window stage (loop,
// ingest), which owns the sliding-window state: it encodes each record,
// notes the windows it completes, and at each flush cuts them into one
// job that it hands to two lanes, one per model (score), which score
// their model's windows side by side. One goroutine per stage and per
// lane, each in FIFO order, so each lane sees the windows, and the
// records around them, exactly as one goroutine doing everything would,
// and a record is always persisted before it is scored. Shards share
// nothing but the read-mostly models.
type worker struct {
	rt *Runtime

	// Intake stage only.
	keyBuf []byte // reusable SDL key-rendering buffer

	handoff chan decoded // intake → window stage, closed by intake
	depth   *obs.Gauge   // batches admitted and not yet taken by the window stage, summed over the node's shards

	// Window stage only, from here down to the lanes.
	encoder *feature.Encoder
	recent  mobiflow.Trace     // trailing records for window + context
	rows    *feature.RowBuffer // float32 encoding of recent, row for row
	spans   [2]int             // records one window covers, per model
	pending [2]windowList      // windows awaiting the next flush: AE, LSTM
	unseen  int                // records ingested since the last flush
	waited  time.Duration      // spent blocked on a full lane this pass
	batchAt time.Time          // RIC arrival time of the batch being ingested
	batchSN uint64             // its E2 indication sequence number

	// Migration state (migrate.go): the control channel delivers
	// checkpoint/restore operations into the window stage; ues tracks
	// each UE's latest provenance chain until it has been idle for
	// ueIdleHorizon; joins holds restored UEs awaiting their first
	// post-migration indication.
	ctrl  chan ctrlOp
	ues   ueMarks
	joins map[uint64]joinInfo

	// free recycles finished jobs, at most jobsInFlight: the window stage
	// takes, the lane that finishes a job last puts back.
	free  chan *scoreJob
	lanes [2]lane // AE, LSTM
}

// decoded is what intake hands the window stage: an indication whose
// records are decoded and already in the SDL. ind.Message is dropped (the
// window stage needs only the header and stamps); key is the indication's
// trace key, minted once for both stages' spans.
type decoded struct {
	ind     ric.Indication
	records mobiflow.Trace
	key     string
}

// windowList is one model's windows awaiting a score: where each starts
// in the records it is cut from and, per window, what raising an alert
// after it is scored needs.
type windowList struct {
	starts []int
	meta   []winMeta
}

func (l *windowList) push(start int, m winMeta) {
	l.starts = append(l.starts, start)
	l.meta = append(l.meta, m)
}

// shift follows a drop of drop records from the front of what the
// windows are cut from.
func (l *windowList) shift(drop int) {
	for i := range l.starts {
		l.starts[i] -= drop
	}
}

func (l *windowList) reset() {
	l.starts, l.meta = l.starts[:0], l.meta[:0]
}

// winMeta names the records a pending window covers and the E2
// indication that completed it. A flush raises windows that are no longer
// at the end of the history, so these travel with the window rather than
// with the worker.
type winMeta struct {
	seqFirst uint64
	seqLast  uint64
	at       time.Time
	sn       uint64
}

// scoreJob is one flush, cut by the window stage for both lanes and
// immutable from then on: the history from the earliest window's context
// on, as records and as encoded rows, and each model's windows, their
// starts counted from the copy's first record. The lane that finishes it
// last counts its records seen and puts it back on the worker's free list.
type scoreJob struct {
	node    string
	records mobiflow.Trace
	rows    *feature.RowBuffer
	windows [2]windowList // AE, LSTM
	seen    int           // records ingested since the flush before
	left    atomic.Int32  // lanes yet to finish it
}

// lane scores one model's windows of each job, in job order. Its
// pendingBatch holds the engine scratch, so a lane runs on one goroutine
// at a time: its own, or, when in is nil, the window stage's, which then
// scores each job inline as it cuts it.
type lane struct {
	idx       int // into thMu, pending, spans and a job's windows
	batch     *pendingBatch
	in        chan *scoreJob
	depth     *obs.Gauge // jobs handed and not taken, summed over the node's shards
	seconds   *obs.Histogram
	anomalies *obs.Counter
}

// Run subscribes MobiWatch to a node's MOBIFLOW telemetry and starts
// online inference. The returned runtime's Take hands out flagged windows
// until Stop. With RunOptions.Shards > 1 the indication stream is
// UE-sharded and scored by that many parallel workers.
func Run(x *ric.XApp, models *Models, opts RunOptions) (*Runtime, error) {
	opts.defaults()
	if opts.NodeID == "" {
		return nil, fmt.Errorf("mobiwatch: RunOptions.NodeID is required")
	}
	trigger := asn1lite.Marshal(&e2sm.EventTrigger{Period: opts.ReportPeriod})
	action := asn1lite.Marshal(&e2sm.ActionDefinition{AllUEs: true})
	sub, err := x.Subscribe(opts.NodeID, e2sm.MobiFlowRANFunctionID, trigger,
		[]e2ap.Action{{ID: 1, Type: e2ap.ActionReport, Definition: action}},
		ric.SubscribeOptions{
			Shards: opts.Shards,
			Buffer: opts.ShardBuffer,
			Key:    func(ind ric.Indication) uint64 { return e2sm.PeekIndicationUE(ind.Header) },
		})
	if err != nil {
		return nil, fmt.Errorf("mobiwatch: subscribing to %s: %w", opts.NodeID, err)
	}
	x.SDL().Bound(TelemetryNamespace, TelemetryBytes)
	rt := &Runtime{
		models: models,
		opts:   opts,
		xapp:   x,
		sub:    sub,
		done:   make(chan struct{}),
	}
	rt.triage = newAlertQueue(&rt.stats, obsQueueDepth.With(opts.NodeID), time.Now)
	var wg sync.WaitGroup
	for i := 0; i < sub.Shards(); i++ {
		w := newWorker(rt)
		rt.workers = append(rt.workers, w)
		w.start(sub.C(i), &wg)
	}
	go func() {
		wg.Wait()
		rt.triage.close()
		close(rt.done)
	}()
	return rt, nil
}

func newWorker(rt *Runtime) *worker {
	m := rt.models
	w := &worker{
		rt:      rt,
		handoff: make(chan decoded, handoffDepth),
		depth:   obsHandoffDepth.With(rt.opts.NodeID),
		encoder: feature.NewEncoder(m.Vocab),
		rows:    feature.NewRowBuffer(m.RecordDim()),
		ctrl:    make(chan ctrlOp),
		ues:     ueMarks{cur: make(map[uint64]chainMark)},
		joins:   make(map[uint64]joinInfo),
		free:    make(chan *scoreJob, jobsInFlight),
	}
	for i, l := range []struct {
		model     ModelName
		stage     string
		anomalies *obs.Counter
	}{{ModelAE, "ae", obsAnomalyAE}, {ModelLSTM, "lstm", obsAnomalyLSTM}} {
		b := newPendingBatch(m, l.model)
		w.spans[i] = b.span()
		w.lanes[i] = lane{
			idx:       i,
			batch:     b,
			depth:     obsLaneDepth.With(rt.opts.NodeID, string(l.model)),
			seconds:   obsScoreSeconds.With(l.stage),
			anomalies: l.anomalies,
		}
	}
	return w
}

// start runs the worker's four goroutines on wg: intake on in, the
// window stage, and a lane per model. Closing in stops them front to
// back — intake closes the hand-off, the window stage then closes the
// lanes' queues, and each lane returns once it has scored what they hold.
func (w *worker) start(in <-chan ric.Indication, wg *sync.WaitGroup) {
	wg.Add(2 + len(w.lanes))
	go func() {
		defer wg.Done()
		w.intake(in)
	}()
	go func() {
		defer wg.Done()
		w.loop()
	}()
	for i := range w.lanes {
		l := &w.lanes[i]
		l.in = make(chan *scoreJob, laneDepth)
		go func() {
			defer wg.Done()
			for job := range l.in {
				l.depth.Add(-1)
				w.score(l, job)
			}
		}()
	}
}

// Take blocks until the triage queue has an alert due an analyzer worker
// and returns the highest-priority one: the first analysis of an episode
// before a repeat, then the strongest window. The alert's episode is not
// handed out again until Resolve(t, …). A non-nil want narrows the take to
// the alerts it answers true for; it is asked once per alert, under the
// queue's lock, so it must be quick and must not block. ok is false when
// ctx is done or the runtime has stopped and nothing is left for this
// taker.
func (rt *Runtime) Take(ctx context.Context, want func(*Alert) bool) (a Alert, t Ticket, ok bool) {
	return rt.triage.Take(ctx, want)
}

// Resolve reports the outcome of the analysis Take started: agreed folds
// the episode's alerts into that verdict for contextSpan, anything else
// re-arms it.
func (rt *Runtime) Resolve(t Ticket, agreed bool) { rt.triage.Resolve(t, agreed) }

// Stats returns live counters.
func (rt *Runtime) Stats() *Stats { return &rt.stats }

// Stop deletes the subscription and closes the triage queue.
func (rt *Runtime) Stop() error {
	err := rt.sub.Delete()
	<-rt.done
	return err
}

// SetThresholdPercentile applies an A1 threshold policy at runtime: both
// detection thresholds are re-fitted at the given percentile of the
// stored training-score distribution, without retraining or redeploying.
func (rt *Runtime) SetThresholdPercentile(pct float64) error {
	for i := range rt.thMu {
		rt.thMu[i].Lock()
		defer rt.thMu[i].Unlock()
	}
	return rt.models.SetPercentile(pct)
}

// Thresholds reports the active detection thresholds.
func (rt *Runtime) Thresholds() (ae, lstm float64) {
	for i := range rt.thMu {
		rt.thMu[i].RLock()
		defer rt.thMu[i].RUnlock()
	}
	return rt.models.AEThreshold, rt.models.LSTMThreshold
}

// intake is the shard's first stage: it admits each indication and hands
// the decoded batch to the window stage in arrival order. The send blocks
// while the hand-off is full, so scoring that falls behind backs the
// stream up into the RIC's shard queue, the one place on this path that
// drops — and counts. Closing the shard stream (Stop, or the node
// vanishing) ends intake, which closes the hand-off, which ends the
// window stage and then the lanes.
func (w *worker) intake(in <-chan ric.Indication) {
	defer close(w.handoff)
	for ind := range in {
		if b, ok := w.admit(ind); ok {
			w.depth.Add(1)
			w.handoff <- b
		}
	}
}

// admit is the intake stage's work on one indication, none of which
// touches window state: decode the payload and persist it to the SDL for
// other services (§3.1) — the message bytes just accepted, in one write
// that allocates the key string and the exact-length copy Set keeps,
// whatever the record count. ok is false for an undecodable payload,
// which is counted and goes no further.
func (w *worker) admit(ind ric.Indication) (b decoded, ok bool) {
	start := time.Now()
	msg, err := e2sm.DecodeIndicationMessage(ind.Message)
	if err != nil {
		obsBadBatches.Inc()
		obs.L().Warn("mobiwatch: undecodable indication payload",
			"node", ind.NodeID, "sn", ind.SN, "err", err)
		return decoded{}, false
	}
	if len(msg.Records) > 0 {
		w.keyBuf = persistKey(w.keyBuf, ind.NodeID, msg.Records[0].Seq)
		w.rt.xapp.SDL().Set(TelemetryNamespace, string(w.keyBuf), ind.Message)
	}
	end := time.Now()
	obsIntakeSeconds.ObserveSeconds(end.Sub(start).Nanoseconds())
	key := obs.IndicationKey(ind.NodeID, ind.SN)
	obs.RecordSpan(key, "mobiwatch.intake", start, end)
	ind.Message = nil
	return decoded{ind: ind, records: msg.Records, key: key}, true
}

// loop is the window stage, the only goroutine that touches window
// state: it ingests the decoded batches in hand-off order, hands each
// flush to the lanes, and runs the migration control operations. A
// control operation therefore races the batches still in the hand-off
// exactly as it already raced the indications still in the shard queue:
// a checkpoint taken now does not contain them, and they are scored
// afterwards. It holds no threshold lock: it may block on a full lane,
// and a lane waiting on a threshold update's write lock would never drain.
//
// Windows wait in the pending lists only while there is company for
// them: behind each indication the window stage flushes if the hand-off
// is empty, and ingest flushes when a model's list reaches batchChunk. So
// when the hand-off closes nothing is pending, and an idle stage holds no
// window back — no timer decides when a window is scored.
func (w *worker) loop() {
	defer func() {
		for i := range w.lanes {
			close(w.lanes[i].in)
		}
	}()
	rt := w.rt
	for {
		select {
		case b, ok := <-w.handoff:
			if !ok {
				return
			}
			w.depth.Add(-1)
			rt.stats.BatchesHandled.Add(1)
			start := time.Now()
			w.ingest(b.ind, b.records)
			if len(w.handoff) == 0 {
				w.flush(b.ind.NodeID)
			}
			end := w.observeScore(obsScoreWindow, start, w.waited)
			w.waited = 0
			obs.RecordSpan(b.key, "mobiwatch.score", start, end)
		case op := <-w.ctrl:
			w.handleCtrl(op)
		}
	}
}

// observeScore records one pass of a stage that began at start, less
// the time it waited on another stage, and returns when it ended.
func (w *worker) observeScore(stage *obs.Histogram, start time.Time, waited time.Duration) (end time.Time) {
	end = time.Now()
	busy := end.Sub(start).Nanoseconds() - waited.Nanoseconds()
	stage.ObserveSeconds(busy)
	return end
}

// persistKey renders "nodeID/%020d" into buf without fmt, so the SDL
// write pays one allocation (the key string) per indication.
func persistKey(buf []byte, nodeID string, seq uint64) []byte {
	buf = append(buf[:0], nodeID...)
	buf = append(buf, '/')
	var digits [20]byte
	for i := len(digits) - 1; i >= 0; i-- {
		digits[i] = byte('0' + seq%10)
		seq /= 10
	}
	return append(buf, digits[:]...)
}

// ingest runs the window stage over a telemetry batch that intake has
// already persisted: each record is encoded and the windows it completes
// wait for the next flush. The caller is the window stage.
func (w *worker) ingest(ind ric.Indication, batch mobiflow.Trace) {
	nodeID := ind.NodeID
	w.batchAt, w.batchSN = ind.ReceivedAt, ind.SN
	w.forgetIdle(ind.ReceivedAt)
	if ue := e2sm.PeekIndicationUE(ind.Header); ue != 0 {
		w.ues.put(ue, chainMark{node: nodeID, sn: ind.SN})
		if j, ok := w.joins[ue]; ok {
			// First indication for a migrated-in UE: join this chain to
			// the one its history arrived from. The windows this batch
			// completes land on the same chain, so an auditor sees
			// restored history feeding the first post-migration score.
			delete(w.joins, ue)
			prov.Record(prov.Event{
				Chain:    prov.ChainID{Node: nodeID, SN: ind.SN},
				Kind:     prov.KindMigration,
				At:       w.batchAt,
				Label:    "in",
				UEID:     ue,
				SeqFirst: j.seqFirst,
				SeqLast:  j.seqLast,
				Note:     j.src.String(),
			})
		}
	}
	for i := range batch {
		rec := &batch[i]
		w.unseen++

		// Encode straight into the row buffer and enqueue the window(s)
		// the record completes; they are handed to the lanes when a list
		// fills (here) or the hand-off is empty behind the indication
		// (loop).
		w.recent = append(w.recent, *rec)
		w.rows.Push(w.encoder, *rec)
		w.enqueueLatest()
		if len(w.pending[0].starts) >= batchChunk || len(w.pending[1].starts) >= batchChunk {
			w.flush(nodeID)
		}
		w.trimHistory()
	}
}

// enqueueLatest appends the window the newest record completes to each
// model's pending list, once enough history exists to fill it.
func (w *worker) enqueueLatest() {
	n := len(w.recent)
	for i := range w.pending {
		start := n - w.spans[i]
		if start < 0 {
			continue
		}
		w.pending[i].push(start, winMeta{
			seqFirst: w.recent[start].Seq,
			seqLast:  w.recent[n-1].Seq,
			at:       w.batchAt,
			sn:       w.batchSN,
		})
	}
}

// flush hands every pending window to the lanes as one job: a copy of the
// history from the earliest window's context on, and each model's
// windows counted from there. Records ingested since the last flush are
// seen once both lanes have scored the job, or now, when there is no
// window to score. The caller is the window stage.
func (w *worker) flush(nodeID string) {
	seen := w.unseen
	w.unseen = 0
	if len(w.pending[0].starts)+len(w.pending[1].starts) == 0 {
		w.rt.countSeen(seen)
		return
	}
	job := w.newJob()
	job.node, job.seen = nodeID, seen
	job.cut(w.recent, w.rows, &w.pending)
	job.left.Store(int32(len(w.lanes)))
	for i := range w.lanes {
		w.send(&w.lanes[i], job)
	}
	// Pending windows no longer pin history; trim to context needs.
	w.trimHistory()
}

// cut fills an empty job from a window stage's history — recent and its
// rows — and takes the stage's pending windows, leaving it the job's
// empty lists: the history is copied from the earliest window's context
// on, and the windows' starts are counted from there.
func (job *scoreJob) cut(recent mobiflow.Trace, rows *feature.RowBuffer, pending *[2]windowList) {
	base := len(recent)
	for i := range pending {
		// Windows are pushed in arrival order, so the first is the oldest.
		if p := &pending[i]; len(p.starts) > 0 {
			base = min(base, p.starts[0])
		}
	}
	base = max(base-contextRecords, 0)
	job.records = append(job.records, recent[base:]...)
	job.rows.CopyFrom(rows, base)
	for i := range pending {
		job.windows[i], pending[i] = pending[i], job.windows[i]
		job.windows[i].shift(base)
	}
}

// newJob takes a finished job off the free list, or makes one while
// fewer than jobsInFlight exist.
func (w *worker) newJob() *scoreJob {
	select {
	case job := <-w.free:
		return job
	default:
		return &scoreJob{rows: feature.NewRowBuffer(w.rows.Dim())}
	}
}

// send hands job to lane l, or scores it inline when the lane has no
// goroutine. Time blocked on a full lane is the lane's, not the window
// stage's, so it is kept out of the stage's observation.
func (w *worker) send(l *lane, job *scoreJob) {
	if l.in == nil {
		w.score(l, job)
		return
	}
	l.depth.Add(1)
	select {
	case l.in <- job:
	default:
		t := time.Now()
		l.in <- job
		w.waited += time.Since(t)
	}
}

// score is lane l's pass over one job: a batched pass over its model's
// windows under the model's threshold read-lock, the evidence by run, and
// an alert for each threshold crossing. The lane that finishes the job
// last counts its records seen and frees it.
func (w *worker) score(l *lane, job *scoreJob) {
	rt := w.rt
	start := time.Now()
	if win := &job.windows[l.idx]; len(win.starts) > 0 {
		b := l.batch
		mu := &rt.thMu[l.idx]
		mu.RLock()
		for _, s := range win.starts {
			b.push(job.rows, s)
		}
		threshold := rt.models.threshold(b.model)
		evidence := windowEvidence{batch: b, node: job.node, threshold: threshold}
		for k, s32 := range b.score() {
			m := &win.meta[k]
			s := float64(s32)
			rt.stats.WindowsScored.Add(1)
			obsWindows.Inc()
			if evidence.observe(k, m, s) {
				l.anomalies.Inc()
				rt.raise(job.records, job.node, win.starts[k], b.span(), s, threshold, b.model, m.at, m.sn)
			}
		}
		evidence.close()
		b.reset()
		mu.RUnlock()
	}
	w.observeScore(l.seconds, start, 0)
	if job.left.Add(-1) == 0 {
		rt.countSeen(job.seen)
		job.reset()
		select {
		case w.free <- job:
		default:
		}
	}
}

// reset empties a scored job for reuse. Its records are zeroed, so that
// no record's strings outlive the job's use.
func (job *scoreJob) reset() {
	clear(job.records)
	job.records = job.records[:0]
	for i := range job.windows {
		job.windows[i].reset()
	}
}

// countSeen counts n records as scored.
func (rt *Runtime) countSeen(n int) {
	rt.stats.RecordsSeen.Add(uint64(n))
	obsRecords.Add(uint64(n))
}

// windowEvidence puts one scored batch of one model on the evidence
// chains. Every scored window is accounted for, but by run: consecutive
// benign windows on one chain fold into a single prov.Event before it is
// recorded, by the rule prov.Ledger applies writer-side (Count
// accumulates, Score keeps the worst, SeqFirst and Threshold stay the
// run's first, SeqLast, At and Digest track its last window). The ledger
// retains the same chain either way; a lane digests one window and sends
// one event per run instead of per window, and a window the memo keeps
// is digested once, however often it repeats. prov.Record copies the
// struct into the ledger's open batch, so the path stays allocation-free.
type windowEvidence struct {
	batch     *pendingBatch
	node      string
	threshold float64

	run  prov.Event // the open benign run; Count == 0 when there is none
	last int        // batch index of the run's latest window
}

// observe accounts for the batch's k-th window, scored s, and reports
// whether it is flagged. A flagged window or a change of chain closes the
// open run first, so each chain reads in scoring order around its alerts.
func (e *windowEvidence) observe(k int, m *winMeta, s float64) (flagged bool) {
	chain := prov.ChainID{Node: e.node, SN: m.sn}
	if s > e.threshold {
		e.close()
		prov.Record(prov.Event{
			Chain:     chain,
			Kind:      prov.KindWindow,
			At:        m.at,
			SeqFirst:  m.seqFirst,
			SeqLast:   m.seqLast,
			Digest:    e.batch.digest(k),
			Model:     string(e.batch.model),
			Score:     s,
			Threshold: e.threshold,
			Flagged:   true,
		})
		return true
	}
	if e.run.Count > 0 && e.run.Chain != chain {
		e.close()
	}
	if e.run.Count == 0 {
		e.run = prov.Event{
			Chain:     chain,
			Kind:      prov.KindWindow,
			SeqFirst:  m.seqFirst,
			Model:     string(e.batch.model),
			Score:     s,
			Threshold: e.threshold,
		}
	} else if s > e.run.Score {
		e.run.Score = s
	}
	e.run.Count++
	e.run.At, e.run.SeqLast, e.last = m.at, m.seqLast, k
	return false
}

// close records the open run, if any, digesting only its last window.
func (e *windowEvidence) close() {
	if e.run.Count == 0 {
		return
	}
	e.run.Digest = e.batch.digest(e.last)
	prov.Record(e.run)
	e.run.Count = 0
}

// trimHistory drops records no longer needed for context windows.
// Records referenced by still-pending windows (and their context) are
// kept until the windows are flushed.
func (w *worker) trimHistory() {
	drop := len(w.recent) - (contextRecords + w.rt.models.Window + 1)
	for i := range w.pending {
		if p := &w.pending[i]; len(p.starts) > 0 {
			drop = min(drop, p.starts[0]-contextRecords)
		}
	}
	if drop <= 0 {
		return
	}
	// Slide down in place, as rows does: re-slicing from the front gives
	// the capacity away and append would regrow the history every few
	// batches.
	kept := copy(w.recent, w.recent[drop:])
	clear(w.recent[kept:])
	w.recent = w.recent[:kept]
	w.rows.Trim(drop)
	for i := range w.pending {
		w.pending[i].shift(drop)
	}
}

// raise flags the window at recent[winStart : winStart+winLen], recent
// being a job's records. at and sn identify the E2 indication that
// completed the window. The alert offered views the job's records; the
// triage queue copies what it keeps.
func (rt *Runtime) raise(recent mobiflow.Trace, nodeID string, winStart, winLen int, score, threshold float64, model ModelName, at time.Time, sn uint64) {
	window := recent[winStart : winStart+winLen]
	start := max(winStart-contextRecords, 0)
	// Temporal bound: drop context records older than contextSpan
	// before the window starts.
	windowStart := window[0].Timestamp
	for start < winStart &&
		windowStart.Sub(recent[start].Timestamp) > contextSpan {
		start++
	}
	alert := Alert{
		NodeID:       nodeID,
		Window:       window,
		Context:      recent[start : winStart+winLen],
		Score:        score,
		Threshold:    threshold,
		Model:        model,
		At:           time.Now(),
		ReceivedAt:   at,
		IndicationSN: sn,
	}
	if !at.IsZero() {
		obsFlagSeconds.ObserveSeconds(alert.At.Sub(at).Nanoseconds())
	}
	label := rt.triage.offer(alert)
	if label == labelShedPriority {
		obs.L().Warn("mobiwatch: triage queue full of stronger alerts, alert refused",
			"node", nodeID, "model", string(model))
	}
	prov.Record(alertEvent(&alert, label, alert.At))
}
