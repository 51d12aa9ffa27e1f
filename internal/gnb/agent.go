package gnb

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/6g-xsec/xsec/internal/asn1lite"
	"github.com/6g-xsec/xsec/internal/e2ap"
	"github.com/6g-xsec/xsec/internal/e2sm"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/prov"
)

// Telemetry-emission counters, labeled by reporting node.
var (
	obsRecords = obs.NewCounterVec("xsec_gnb_mobiflow_records_total",
		"MOBIFLOW telemetry records shipped over E2, by node.", "node")
	obsIndicationsSent = obs.NewCounterVec("xsec_gnb_indications_sent_total",
		"RIC indications emitted by the gNB agent, by node.", "node")
	obsBatchRecords = obs.NewHistogramVec("xsec_gnb_indication_batch_records",
		"Records coalesced into each RIC indication, by node.",
		obs.ExpBuckets(1, 2, 10), "node")
)

// DefaultBatchRecords is the per-indication record cap when
// Config.Batch.MaxRecords is unset.
const DefaultBatchRecords = 64

// BatchPolicy controls how the E2 agent coalesces drained MobiFlow
// records into RIC Indications (the max-records / max-age adaptive
// flush). The zero value picks the defaults.
type BatchPolicy struct {
	// MaxRecords caps the records carried by one indication; a flush
	// holding more splits into multiple indications per UE. A pending
	// set that has reached MaxRecords is flushed by the poll that finds
	// it so, not by the record that fills it: the size is looked at
	// once per MaxAge tick and nothing wakes the reporter in between,
	// so with the default MaxAge (the period) a burst still waits for
	// the period's tick. The event-driven report is ROADMAP item 1(h).
	// Default DefaultBatchRecords.
	MaxRecords int
	// MaxAge is the drain cadence and staleness bound: telemetry is
	// polled every MaxAge, and records flushed no later than one poll
	// after the one that drained them. It is clamped to the
	// subscription period; the default (the period itself) reproduces
	// the classic one-flush-per-period report loop.
	MaxAge time.Duration
}

// ServeE2 runs the gNB's RIC agent over an E2 connection: it performs the
// E2 Setup handshake (advertising the E2SM-MOBIFLOW and E2SM-XRC RAN
// functions), serves RIC subscriptions by periodically reporting drained
// telemetry as RIC Indications, and applies RIC Control actions to the
// data plane — the full Figure 3 agent role.
//
// ServeE2 blocks until the connection closes and its report loops have
// exited, so the node ships and counts nothing after it returns.
// Telemetry reporting is single-consumer: concurrent report
// subscriptions share the drain.
func (g *GNB) ServeE2(ep *e2ap.Endpoint) error {
	ep.SetNodeID(g.cfg.NodeID)
	if err := ep.Send(&e2ap.Message{
		Type:   e2ap.TypeE2SetupRequest,
		NodeID: g.cfg.NodeID,
		RANFunctions: []e2ap.RANFunction{
			{ID: e2sm.MobiFlowRANFunctionID, OID: e2sm.MobiFlowOID, Definition: asn1lite.Marshal(e2sm.MobiFlowFunctionDefinition())},
			{ID: e2sm.XRCRANFunctionID, OID: e2sm.XRCOID, Definition: asn1lite.Marshal(e2sm.XRCFunctionDefinition())},
		},
	}); err != nil {
		return fmt.Errorf("gnb: E2 setup: %w", err)
	}
	resp, err := ep.Recv()
	if err != nil {
		return fmt.Errorf("gnb: awaiting E2 setup response: %w", err)
	}
	if resp.Type != e2ap.TypeE2SetupResponse {
		return fmt.Errorf("gnb: E2 setup rejected: %s (%s)", resp.Type, resp.Cause)
	}

	agent := &e2Agent{g: g, ep: ep, reporters: make(map[e2ap.RequestID]chan struct{})}
	defer agent.stopAll()
	for {
		msg, err := ep.Recv()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		agent.handle(msg)
	}
}

type e2Agent struct {
	g  *GNB
	ep *e2ap.Endpoint

	mu        sync.Mutex
	reporters map[e2ap.RequestID]chan struct{}
	reporting sync.WaitGroup // the report loops; stopAll waits for them
}

func (a *e2Agent) handle(msg *e2ap.Message) {
	switch msg.Type {
	case e2ap.TypeSubscriptionRequest:
		a.subscribe(msg)
	case e2ap.TypeSubscriptionDeleteRequest:
		a.unsubscribe(msg)
	case e2ap.TypeControlRequest:
		a.control(msg)
	}
}

func (a *e2Agent) subscribe(msg *e2ap.Message) {
	if msg.RANFunctionID != e2sm.MobiFlowRANFunctionID {
		a.ep.Send(&e2ap.Message{
			Type: e2ap.TypeSubscriptionFailure, RequestID: msg.RequestID,
			RANFunctionID: msg.RANFunctionID, Cause: "unsupported RAN function for report",
		})
		return
	}
	var trigger e2sm.EventTrigger
	if err := asn1lite.Unmarshal(msg.EventTrigger, &trigger); err != nil || trigger.Period <= 0 {
		a.ep.Send(&e2ap.Message{
			Type: e2ap.TypeSubscriptionFailure, RequestID: msg.RequestID,
			RANFunctionID: msg.RANFunctionID, Cause: "invalid event trigger",
		})
		return
	}
	var admitted []uint16
	actionID := uint16(0)
	for _, act := range msg.Actions {
		if act.Type == e2ap.ActionReport {
			admitted = append(admitted, act.ID)
			actionID = act.ID
		}
	}
	if len(admitted) == 0 {
		a.ep.Send(&e2ap.Message{
			Type: e2ap.TypeSubscriptionFailure, RequestID: msg.RequestID,
			RANFunctionID: msg.RANFunctionID, Cause: "no report action",
		})
		return
	}

	stop := make(chan struct{})
	a.mu.Lock()
	if old, dup := a.reporters[msg.RequestID]; dup {
		close(old)
	}
	a.reporters[msg.RequestID] = stop
	a.mu.Unlock()

	a.ep.Send(&e2ap.Message{
		Type: e2ap.TypeSubscriptionResponse, RequestID: msg.RequestID,
		RANFunctionID: msg.RANFunctionID, AdmittedActions: admitted,
	})
	a.reporting.Add(1)
	go func() {
		defer a.reporting.Done()
		a.report(msg.RequestID, actionID, trigger.Period, stop)
	}()
}

// reporter is the per-subscription batching state of the report loop.
// Everything it touches per flush — the pending drain buffer, the per-UE
// grouping, the header/message encoders, and the indication PDU — is
// reused, so the reporter itself allocates nothing in steady state and
// holds nothing for a UE between flushes.
type reporter struct {
	a        *e2Agent
	reqID    e2ap.RequestID
	actionID uint16
	pol      BatchPolicy

	batchSeq uint64
	pending  mobiflow.Trace
	byUE     map[uint64]mobiflow.Trace // UEs with records this flush only
	order    []uint64                  // those UEs, in arrival order
	free     []mobiflow.Trace          // emptied per-UE slices awaiting reuse
	held     bool                      // pending survived the previous poll unflushed

	hdrEnc asn1lite.Encoder
	msgEnc asn1lite.Encoder
	ind    e2ap.Message

	records     *obs.Counter
	indications *obs.Counter
	batchSize   *obs.Histogram
}

// report drains telemetry every BatchPolicy.MaxAge and coalesces it into
// UE-scoped RIC Indications under the max-records / max-age flush policy.
func (a *e2Agent) report(reqID e2ap.RequestID, actionID uint16, period time.Duration, stop chan struct{}) {
	pol := a.g.cfg.Batch
	if pol.MaxRecords <= 0 {
		pol.MaxRecords = DefaultBatchRecords
	}
	if pol.MaxAge <= 0 || pol.MaxAge > period {
		pol.MaxAge = period
	}
	// Flush at least once per subscription period, measured in polls so
	// ticker jitter cannot slip a flush by a whole extra period.
	ticksPerPeriod := int(period / pol.MaxAge)
	if ticksPerPeriod < 1 {
		ticksPerPeriod = 1
	}
	r := &reporter{
		a: a, reqID: reqID, actionID: actionID, pol: pol,
		byUE:        make(map[uint64]mobiflow.Trace),
		records:     obsRecords.With(a.g.cfg.NodeID),
		indications: obsIndicationsSent.With(a.g.cfg.NodeID),
		batchSize:   obsBatchRecords.With(a.g.cfg.NodeID),
	}
	ticker := time.NewTicker(pol.MaxAge)
	defer ticker.Stop()
	sinceFlush := 0
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			start := time.Now()
			r.pending = a.g.DrainRecordsInto(r.pending)
			sinceFlush++
			if len(r.pending) == 0 {
				continue
			}
			if r.held || len(r.pending) >= pol.MaxRecords || sinceFlush >= ticksPerPeriod {
				if !r.flush(start) {
					return
				}
				sinceFlush = 0
				r.held = false
			} else {
				r.held = true
			}
		}
	}
}

// flush groups the pending records by UE (preserving per-UE arrival
// order) and emits one indication per UE per MaxRecords chunk. It
// reports false when the transport failed and the loop should exit.
func (r *reporter) flush(start time.Time) bool {
	for i := range r.pending {
		ue := r.pending[i].UEID
		recs, seen := r.byUE[ue]
		if !seen {
			r.order = append(r.order, ue)
			if n := len(r.free); n > 0 {
				recs, r.free = r.free[n-1], r.free[:n-1]
			}
		}
		r.byUE[ue] = append(recs, r.pending[i])
	}
	r.pending = r.pending[:0]
	for _, ue := range r.order {
		recs := r.byUE[ue]
		for chunk := recs; len(chunk) > 0; {
			n := min(len(chunk), r.pol.MaxRecords)
			if !r.emit(ue, chunk[:n], start) {
				return false
			}
			chunk = chunk[n:]
		}
		// A UE's state lives for one flush: drop its entry and recycle
		// the slice (cleared, so it pins no record strings), or the map
		// grows with every UE the subscription ever saw.
		clear(recs)
		r.free = append(r.free, recs[:0])
		delete(r.byUE, ue)
	}
	r.order = r.order[:0]
	return true
}

// emit ships one UE-scoped chunk as a RIC Indication. Each chunk gets
// its own batch sequence number, so every indication still roots its own
// provenance chain with an exact digest of what it carried.
func (r *reporter) emit(ue uint64, chunk mobiflow.Trace, start time.Time) bool {
	nodeID := r.a.g.cfg.NodeID
	r.batchSeq++
	hdr := e2sm.IndicationHeader{
		NodeID:          nodeID,
		CollectionStart: chunk[0].Timestamp,
		BatchSeq:        r.batchSeq,
		UEID:            ue,
	}
	r.hdrEnc.Reset()
	hdr.MarshalTLV(&r.hdrEnc)
	r.msgEnc.Reset()
	mobiflow.AppendTrace(&r.msgEnc, chunk)
	r.ind = e2ap.Message{
		Type:              e2ap.TypeIndication,
		RequestID:         r.reqID,
		RANFunctionID:     e2sm.MobiFlowRANFunctionID,
		ActionID:          r.actionID,
		IndicationSN:      r.batchSeq,
		IndicationHeader:  r.hdrEnc.Bytes(),
		IndicationMessage: r.msgEnc.Bytes(),
	}
	if err := r.a.ep.Send(&r.ind); err != nil {
		return false
	}
	r.records.Add(uint64(len(chunk)))
	r.indications.Inc()
	r.batchSize.Observe(float64(len(chunk)))
	obs.RecordSpan(obs.IndicationKey(nodeID, r.batchSeq),
		"gnb.report", start, time.Now())
	// Root of the evidence chain: what the node actually emitted,
	// fingerprinted before the batch crosses any trust boundary.
	prov.Record(prov.Event{
		Chain:    prov.ChainID{Node: nodeID, SN: r.batchSeq},
		Kind:     prov.KindEmit,
		At:       start,
		SeqFirst: chunk[0].Seq,
		SeqLast:  chunk[len(chunk)-1].Seq,
		Records:  uint32(len(chunk)),
		Digest:   prov.DigestRecords(chunk),
	})
	return true
}

func (a *e2Agent) unsubscribe(msg *e2ap.Message) {
	a.mu.Lock()
	if stop, ok := a.reporters[msg.RequestID]; ok {
		close(stop)
		delete(a.reporters, msg.RequestID)
	}
	a.mu.Unlock()
	a.ep.Send(&e2ap.Message{
		Type: e2ap.TypeSubscriptionDeleteResponse, RequestID: msg.RequestID,
		RANFunctionID: msg.RANFunctionID,
	})
}

func (a *e2Agent) control(msg *e2ap.Message) {
	fail := func(cause string) {
		a.ep.Send(&e2ap.Message{Type: e2ap.TypeControlFailure, RequestID: msg.RequestID, Cause: cause})
	}
	if msg.RANFunctionID != e2sm.XRCRANFunctionID {
		fail("unsupported RAN function for control")
		return
	}
	var req e2sm.ControlRequest
	if err := asn1lite.Unmarshal(msg.ControlMessage, &req); err != nil {
		fail("undecodable control message")
		return
	}
	switch req.Action {
	case e2sm.ControlReleaseUE:
		if err := a.g.ReleaseUE(req.UEID); err != nil {
			fail(err.Error())
			return
		}
	case e2sm.ControlBlockTMSI:
		a.g.BlockTMSI(req.TMSI)
	case e2sm.ControlUnblockTMSI:
		a.g.UnblockTMSI(req.TMSI)
	case e2sm.ControlRequireStrongSecurity:
		a.g.RequireStrongSecurity(true)
	case e2sm.ControlRelaxSecurity:
		a.g.RequireStrongSecurity(false)
	default:
		fail(fmt.Sprintf("unknown control action %d", req.Action))
		return
	}
	a.ep.Send(&e2ap.Message{Type: e2ap.TypeControlAck, RequestID: msg.RequestID})
}

func (a *e2Agent) stopAll() {
	a.mu.Lock()
	for id, stop := range a.reporters {
		close(stop)
		delete(a.reporters, id)
	}
	a.mu.Unlock()
	a.reporting.Wait()
}
