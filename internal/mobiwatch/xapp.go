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
	obsScoreSeconds = obs.NewHistogram("xsec_mobiwatch_score_seconds",
		"Scoring-stage time per decoded telemetry batch (feature encode, batched inference, evidence, alerts); decode and persist are xsec_mobiwatch_intake_seconds.", obs.ExpBuckets(1e-6, 4, 12))
	obsHandoffDepth = obs.NewGaugeVec("xsec_mobiwatch_handoff_depth",
		"Decoded, persisted batches the scoring stage has not taken yet, by node, counting the one an intake goroutine is blocked handing over: past the bound while scoring is the bottleneck, near zero while intake is.", "node")
	obsFlagSeconds = obs.NewHistogram("xsec_mobiwatch_flag_seconds",
		"E2 indication arrival to anomaly flag.", obs.DefLatencyBuckets)
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
	// ScoreLatency, when set, additionally receives every per-batch
	// scoring latency observation. Colocated federated instances share
	// the process-global histogram, so each instance passes its own
	// private histogram here to report instance-attributed latency to
	// the fleet collector.
	ScoreLatency *obs.Histogram
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
	// intake and scoring goroutines. The scorer flushes whenever it finds
	// the hand-off empty, so while scoring is the bottleneck a flush
	// batches up to batchChunk windows (≈ 7 nine-record indications) and
	// intake can run this far ahead of the scorer's longest pause; anything
	// deeper is queueing delay ahead of the score and records held decoded. A full hand-off blocks intake,
	// so the wait moves to the RIC's shard queue (ShardBuffer), whose
	// drops are counted.
	handoffDepth = 16
)

// Stats counts xApp activity. Every flagged window is either
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

	// thMu guards the shared model thresholds: workers hold the read
	// side per batch, SetThresholdPercentile the write side.
	thMu    sync.RWMutex
	workers []*worker
	done    chan struct{}
}

// worker is one shard's detection pipeline: all indications of a UE land
// on the same worker, in order. It runs as two goroutines joined by the
// handoff channel. The intake stage (intake, admit) decodes each
// indication and persists it to the SDL; the scoring stage (loop,
// ingest) owns the sliding-window state and everything that reads it. One
// of each, in FIFO order, so the scorer sees the record stream exactly as
// one goroutine doing both would, and a record is always persisted before
// it is scored. Shards share nothing but the read-mostly models.
type worker struct {
	rt *Runtime

	// Intake stage only.
	keyBuf []byte // reusable SDL key-rendering buffer

	handoff chan decoded // intake → scoring, closed by intake
	depth   *obs.Gauge   // batches admitted and not yet taken by the scorer, summed over the node's shards

	// Scoring stage only, from here down.
	encoder *feature.Encoder
	recent  mobiflow.Trace     // trailing records for window + context
	rows    *feature.RowBuffer // float32 encoding of recent, row for row
	queues  [2]windowQueue     // windows awaiting the next flush: AE, LSTM
	batchAt time.Time          // RIC arrival time of the batch being ingested
	batchSN uint64             // its E2 indication sequence number

	// Migration state (migrate.go): the control channel delivers
	// checkpoint/restore operations into the scoring goroutine; ues
	// tracks each UE's latest provenance chain until it has been idle
	// for ueIdleHorizon; joins holds restored UEs awaiting their first
	// post-migration indication.
	ctrl  chan ctrlOp
	ues   ueMarks
	joins map[uint64]joinInfo
}

// decoded is what intake hands the scorer: an indication whose records are
// decoded and already in the SDL. ind.Message is dropped (the scorer needs
// only the header and stamps); key is the indication's trace key, minted
// once for both stages' spans.
type decoded struct {
	ind     ric.Indication
	records mobiflow.Trace
	key     string
}

// windowQueue is one model's share of a worker's pending batch: the
// tensor being filled plus, per pushed window, what raising an alert
// after the batch is scored needs.
type windowQueue struct {
	batch     *pendingBatch
	meta      []winMeta
	anomalies *obs.Counter
}

// winMeta names the records a pending window covers and the E2
// indication that completed it; where it starts in the worker's history
// is its batch's starts entry. A flush raises windows that are no longer
// at the end of the history, so these travel with the window rather than
// with the worker.
type winMeta struct {
	seqFirst uint64
	seqLast  uint64
	at       time.Time
	sn       uint64
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
		wg.Add(2)
		go func(shard int) {
			defer wg.Done()
			w.intake(sub.C(shard))
		}(i)
		go func() {
			defer wg.Done()
			w.loop()
		}()
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
	return &worker{
		rt:      rt,
		handoff: make(chan decoded, handoffDepth),
		depth:   obsHandoffDepth.With(rt.opts.NodeID),
		encoder: feature.NewEncoder(m.Vocab),
		rows:    feature.NewRowBuffer(m.RecordDim()),
		queues: [2]windowQueue{
			{batch: newPendingBatch(m, ModelAE), anomalies: obsAnomalyAE},
			{batch: newPendingBatch(m, ModelLSTM), anomalies: obsAnomalyLSTM},
		},
		ctrl:  make(chan ctrlOp),
		ues:   ueMarks{cur: make(map[uint64]chainMark)},
		joins: make(map[uint64]joinInfo),
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
	rt.thMu.Lock()
	defer rt.thMu.Unlock()
	return rt.models.SetPercentile(pct)
}

// Thresholds reports the active detection thresholds.
func (rt *Runtime) Thresholds() (ae, lstm float64) {
	rt.thMu.RLock()
	defer rt.thMu.RUnlock()
	return rt.models.AEThreshold, rt.models.LSTMThreshold
}

// intake is the shard's first stage: it admits each indication and hands
// the decoded batch to the scorer in arrival order. The send blocks while
// the hand-off is full, so a scorer that falls behind backs the stream up
// into the RIC's shard queue, the one place on this path that drops — and
// counts. Closing the shard stream (Stop, or the node vanishing) ends
// intake, which closes the hand-off, which ends the scorer.
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

// loop is the shard's second stage and the only goroutine that touches
// window state: it scores the decoded batches in hand-off order and runs
// the migration control operations. A control operation therefore races
// the batches still in the hand-off exactly as it already raced the
// indications still in the shard queue: a checkpoint taken now does not
// contain them, and they are scored here afterwards.
//
// Windows wait in the pending batches only while there is company for
// them: behind each indication the scorer flushes if the hand-off is
// empty, and ingest flushes when a model's batch reaches batchChunk. So
// when the hand-off closes nothing is pending, and an idle scorer holds
// no window back — no timer decides when a window is scored.
func (w *worker) loop() {
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
			rt.thMu.RLock()
			w.ingest(b.ind, b.records)
			if len(w.handoff) == 0 {
				w.flushLocked(b.ind.NodeID)
			}
			rt.thMu.RUnlock()
			end := w.observeScore(start)
			obs.RecordSpan(b.key, "mobiwatch.score", start, end)
		case op := <-w.ctrl:
			w.handleCtrl(op)
		}
	}
}

// observeScore records one scoring pass that began at start and returns
// when it ended.
func (w *worker) observeScore(start time.Time) (end time.Time) {
	rt := w.rt
	end = time.Now()
	elapsed := end.Sub(start).Nanoseconds()
	obsScoreSeconds.ObserveSeconds(elapsed)
	if rt.opts.ScoreLatency != nil {
		rt.opts.ScoreLatency.ObserveSeconds(elapsed)
	}
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

// ingest runs streaming inference over a telemetry batch that intake has
// already persisted. The caller is the scoring goroutine and holds the
// runtime's threshold read-lock.
func (w *worker) ingest(ind ric.Indication, batch mobiflow.Trace) {
	rt := w.rt
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
		rt.stats.RecordsSeen.Add(1)
		obsRecords.Inc()

		// Encode straight into the row buffer and enqueue the window(s)
		// the record completes; scoring happens when a batch fills
		// (here) or the hand-off is empty behind the indication (loop).
		w.recent = append(w.recent, *rec)
		w.rows.Push(w.encoder, *rec)
		w.enqueueLatest()
		if w.queues[0].batch.len() >= batchChunk || w.queues[1].batch.len() >= batchChunk {
			w.flushLocked(nodeID)
		}
		w.trimHistory()
	}
}

// enqueueLatest appends the window the newest record completes to each
// model's pending batch, once enough history exists to fill it.
func (w *worker) enqueueLatest() {
	n := len(w.recent)
	for i := range w.queues {
		q := &w.queues[i]
		start := n - q.batch.span()
		if start < 0 {
			continue
		}
		q.batch.push(w.rows, start)
		q.meta = append(q.meta, winMeta{
			seqFirst: w.recent[start].Seq,
			seqLast:  w.recent[n-1].Seq,
			at:       w.batchAt,
			sn:       w.batchSN,
		})
	}
}

// flushLocked scores every pending window in one batched pass per model,
// records the evidence by run, and raises alerts for threshold crossings.
// The caller holds the runtime's threshold read-lock.
func (w *worker) flushLocked(nodeID string) {
	rt := w.rt
	for i := range w.queues {
		q := &w.queues[i]
		if len(q.meta) == 0 {
			continue
		}
		b := q.batch
		threshold := rt.models.threshold(b.model)
		evidence := windowEvidence{batch: b, node: nodeID, threshold: threshold}
		for k, s32 := range b.score() {
			m := &q.meta[k]
			s := float64(s32)
			rt.stats.WindowsScored.Add(1)
			obsWindows.Inc()
			if evidence.observe(k, m, s) {
				q.anomalies.Inc()
				w.raise(nodeID, b.starts[k], b.span(), s, threshold, b.model, m.at, m.sn)
			}
		}
		evidence.close()
		b.reset()
		q.meta = q.meta[:0]
	}
	// Pending windows no longer pin history; trim to context needs.
	w.trimHistory()
}

// windowEvidence puts one scored batch of one model on the evidence
// chains. Every scored window is accounted for, but by run: consecutive
// benign windows on one chain fold into a single prov.Event before it is
// recorded, by the rule prov.Ledger applies writer-side (Count
// accumulates, Score keeps the worst, SeqFirst and Threshold stay the
// run's first, SeqLast, At and Digest track its last window). The ledger
// retains the same chain either way; the scoring goroutine digests one
// window and sends one event per run instead of per window. prov.Record
// is a struct channel send, so the path stays allocation-free.
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
// kept until the batch flushes.
func (w *worker) trimHistory() {
	drop := len(w.recent) - (contextRecords + w.rt.models.Window + 1)
	for i := range w.queues {
		// Windows are pushed in arrival order, so the first is the oldest.
		if b := w.queues[i].batch; b.len() > 0 {
			drop = min(drop, b.starts[0]-contextRecords)
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
	for i := range w.queues {
		w.queues[i].batch.shift(drop)
	}
}

// raise flags the window at w.recent[winStart : winStart+winLen]. at and
// sn identify the E2 indication that completed the window. The alert
// offered views the worker's history; the triage queue copies what it
// keeps.
func (w *worker) raise(nodeID string, winStart, winLen int, score, threshold float64, model ModelName, at time.Time, sn uint64) {
	window := w.recent[winStart : winStart+winLen]
	start := max(winStart-contextRecords, 0)
	// Temporal bound: drop context records older than contextSpan
	// before the window starts.
	windowStart := window[0].Timestamp
	for start < winStart &&
		windowStart.Sub(w.recent[start].Timestamp) > contextSpan {
		start++
	}
	alert := Alert{
		NodeID:       nodeID,
		Window:       window,
		Context:      w.recent[start : winStart+winLen],
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
	label := w.rt.triage.offer(alert)
	if label == labelShedPriority {
		obs.L().Warn("mobiwatch: triage queue full of stronger alerts, alert refused",
			"node", nodeID, "model", string(model))
	}
	prov.Record(alertEvent(&alert, label, alert.At))
}
