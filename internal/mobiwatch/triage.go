package mobiwatch

import (
	"context"
	"slices"
	"sync"
	"time"

	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/prov"
)

// The alert path between a scoring worker and an analyzer worker is one
// bounded triage queue. Three constants shape it, each a value the tree
// already had a reason for: the two below and contextSpan, for which an
// episode the expert agreed on folds its later alerts (a window flagged
// within that span of the verdict shares telemetry with the context the
// expert has already read).
const (
	// alertBuffer is how many alerts may wait for an analyzer worker.
	// Alerts are keyed into episodes, so the bound counts distinct UEs
	// with an unanalysed flagged window, not flagged windows.
	alertBuffer = 64
	// AlertStaleAfter is how long an alert may wait before it is shed:
	// the llm governor's default admission budget, the longest the loop
	// already accepts a verdict to queue. A verdict on an older window
	// would arrive after the near-real-time loop has moved on.
	AlertStaleAfter = 250 * time.Millisecond
)

var (
	obsAlertsFolded = obs.NewCounter("xsec_mobiwatch_alerts_folded_total",
		"Flagged windows folded into an alert of the same episode instead of taking a queue slot.")
	obsAlertsShed = obs.NewCounterVec("xsec_mobiwatch_alerts_shed_total",
		"Alerts shed from the triage queue before an analyzer worker took them, by reason.", "reason")
	obsShedPriority = obsAlertsShed.With("lower_priority")
	obsShedStale    = obsAlertsShed.With("stale")
	obsQueueWait    = obs.NewHistogramVec("xsec_mobiwatch_alert_queue_wait_seconds",
		"Time an alert waited in the triage queue, offer to take, by the kind of taker that got it: a filtered one (the analyzer's recall lane) or an unfiltered one (a round-trip worker).",
		obs.DefLatencyBuckets, "lane")
	obsWaitRecall    = obsQueueWait.With("recall")
	obsWaitRoundTrip = obsQueueWait.With("round_trip")
)

// Alert dispositions, as the KindAlert event on the alert's chain labels
// them: raise records the first, the queue any later one.
const (
	labelRaised       = "raised"
	labelFolded       = "folded"
	labelShedPriority = "shed:lower_priority"
	labelShedStale    = "shed:stale"
)

// Ticket names a taken alert's episode; it goes back through Resolve.
type Ticket struct{ ep *episode }

// episode is the triage state of one key: the UE of a flagged window's
// newest record, the unit the mitigation engine dedups release actions
// on. An episode is in the table while it has a pending alert, is in
// flight, or was agreed on less than contextSpan ago.
type episode struct {
	key uint64
	// alert is the strongest flagged window waiting for a worker, valid
	// while pending; alert.Folded counts the windows folded into it.
	alert   Alert
	pending bool
	offered time.Time // when alert was offered: staleness and wait epoch
	// asked, wanted: a filtered Take put its question about alert, and the
	// answer. keep clears both: the question is asked once per kept window.
	asked, wanted bool
	// inflight: a worker holds this key, so no second worker is handed it.
	inflight bool
	// repeat: the pending alert follows an analysis of the same episode.
	repeat bool
	// foldUntil: the expert agreed; alerts fold until then.
	foldUntil time.Time
}

// outranks reports whether e is taken before, and shed after, o: a first
// analysis before a repeat, then the strongest window, then the newest.
func (e *episode) outranks(o *episode) bool {
	if e.repeat != o.repeat {
		return !e.repeat
	}
	re, ro := e.alert.Score/e.alert.Threshold, o.alert.Score/o.alert.Threshold
	if re != ro {
		return re > ro
	}
	return e.offered.After(o.offered)
}

// alertQueue is the triage queue. Every flagged window offered is, at any
// instant, exactly one of taken, folded, shed (by reason) or queued, and
// Stats counts each, so offered = taken + folded + shed + queued.
type alertQueue struct {
	now   func() time.Time
	stats *Stats
	depth *obs.Gauge

	mu      sync.Mutex
	table   map[uint64]*episode
	pending []*episode // unordered; scans are bounded by alertBuffer
	decided []*episode // agreed episodes, oldest verdict first
	wake    chan struct{}
	closed  bool
}

func newAlertQueue(stats *Stats, depth *obs.Gauge, now func() time.Time) *alertQueue {
	return &alertQueue{
		now:   now,
		stats: stats,
		depth: depth,
		table: make(map[uint64]*episode),
		wake:  make(chan struct{}),
	}
}

// alertEvent is the KindAlert provenance event of a with the given
// disposition.
func alertEvent(a *Alert, label string, at time.Time) prov.Event {
	return prov.Event{
		Chain:     prov.ChainID{Node: a.NodeID, SN: a.IndicationSN},
		Kind:      prov.KindAlert,
		At:        at,
		SeqFirst:  a.Window.FirstSeq(),
		SeqLast:   a.Window.LastSeq(),
		Digest:    prov.DigestRecords(a.Window),
		Model:     string(a.Model),
		Score:     a.Score,
		Threshold: a.Threshold,
		Flagged:   true,
		Label:     label,
	}
}

// offer hands one flagged window to the queue and returns its
// disposition. a.Window and a.Context are borrowed: the queue copies them
// only when it keeps the alert. It never blocks. An alert refused here is
// the only kind Stats counts as dropped; every other one is raised.
func (q *alertQueue) offer(a Alert) (label string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.now()
	q.expireLocked(now)
	label = q.offerLocked(a, now)
	if label == labelShedPriority {
		q.stats.AlertsDropped.Add(1)
		obsAlertsDropped.Inc()
		q.countShed(label)
	} else {
		q.stats.AlertsRaised.Add(1)
		obsAlertsRaised.Inc()
	}
	return label
}

func (q *alertQueue) offerLocked(a Alert, now time.Time) (label string) {
	key := a.Window[len(a.Window)-1].UEID
	ep := q.table[key]
	switch {
	case ep == nil:
		ep = &episode{key: key}
	case ep.pending:
		q.foldedLocked()
		if a.Score/a.Threshold <= ep.alert.Score/ep.alert.Threshold {
			ep.alert.Folded++
			return labelFolded
		}
		// The stronger window stands for the episode from here on.
		prov.Record(alertEvent(&ep.alert, labelFolded, now))
		a.Folded = ep.alert.Folded + 1
		// A filtered taker that did not want the old window may be parked
		// with this episode pending: it has a new window to ask about.
		reask := ep.asked && !ep.wanted && !ep.inflight
		ep.keep(a, now)
		if reask {
			q.wakeLocked()
		}
		return labelRaised
	case ep.inflight:
		// Held behind the analysis in progress: it folds into an agreeing
		// verdict, or is the repeat any other outcome makes due.
	default:
		q.foldedLocked() // agreed on less than contextSpan ago
		return labelFolded
	}

	candidate := episode{alert: a, offered: now, repeat: ep.inflight}
	if len(q.pending) == alertBuffer {
		worst := q.pending[0]
		for _, p := range q.pending[1:] {
			if worst.outranks(p) {
				worst = p
			}
		}
		if !candidate.outranks(worst) {
			return labelShedPriority
		}
		q.shedLocked(worst, labelShedPriority, now)
	}
	ep.repeat = candidate.repeat
	ep.keep(a, now)
	ep.pending = true
	q.table[key] = ep
	q.pending = append(q.pending, ep)
	q.depthLocked()
	if !ep.inflight {
		q.wakeLocked()
	}
	return labelRaised
}

// keep makes a, copied, the episode's pending alert. raise builds Window
// as the tail of Context, so one copy holds both.
func (e *episode) keep(a Alert, now time.Time) {
	a.Context = slices.Clone(a.Context)
	a.Window = a.Context[len(a.Context)-len(a.Window):]
	e.alert, e.offered = a, now
	e.asked, e.wanted = false, false
}

// Take blocks until an alert is due a worker and returns the one that
// outranks the rest, marking its episode in flight until Resolve. A taker
// that can only serve some alerts passes want: it is asked, under the
// queue's lock and once per kept window, whether it wants the alert, may
// note on it what it found out (Alert.Recalled), and is handed the one that
// outranks the rest among those it wanted; nil wants any. ok is false once
// ctx is done, or the queue is closed and holds nothing this taker may
// take.
func (q *alertQueue) Take(ctx context.Context, want func(*Alert) bool) (a Alert, t Ticket, ok bool) {
	for {
		q.mu.Lock()
		now := q.now()
		q.expireLocked(now)
		var best *episode
		for _, p := range q.pending {
			if p.inflight {
				continue
			}
			if want != nil {
				if !p.asked {
					p.asked, p.wanted = true, want(&p.alert)
				}
				if !p.wanted {
					continue
				}
			}
			if best == nil || p.outranks(best) {
				best = p
			}
		}
		if best != nil {
			q.unqueueLocked(best)
			a = best.alert
			best.alert = Alert{} // the table must not pin a taken alert
			best.inflight = true
			q.stats.AlertsTaken.Add(1)
			wait := obsWaitRoundTrip
			if want != nil {
				q.stats.AlertsRecalled.Add(1)
				wait = obsWaitRecall
			}
			waited := now.Sub(best.offered)
			q.mu.Unlock()
			wait.ObserveWithExemplar(waited.Seconds(), obs.IndicationKey(a.NodeID, a.IndicationSN))
			return a, Ticket{best}, true
		}
		closed, wake := q.closed, q.wake
		q.mu.Unlock()
		if closed {
			return Alert{}, Ticket{}, false
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return Alert{}, Ticket{}, false
		}
	}
}

// Resolve ends the analysis Take started. An agreed episode folds what
// arrived meanwhile, and what arrives for contextSpan, into that verdict;
// any other outcome makes the strongest window seen meanwhile due a
// worker as a repeat, or forgets the episode when there is none.
func (q *alertQueue) Resolve(t Ticket, agreed bool) {
	ep := t.ep
	q.mu.Lock()
	defer q.mu.Unlock()
	if ep == nil || !ep.inflight {
		return
	}
	ep.inflight = false
	switch {
	case agreed:
		now := q.now()
		if ep.pending {
			q.unqueueLocked(ep)
			q.foldedLocked()
			prov.Record(alertEvent(&ep.alert, labelFolded, now))
			ep.alert = Alert{}
		}
		ep.foldUntil = now.Add(contextSpan)
		q.decided = append(q.decided, ep)
	case ep.pending:
		q.wakeLocked()
	default:
		delete(q.table, ep.key)
	}
}

// close ends the stream: takers drain what is queued, then see ok false.
func (q *alertQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.wakeLocked()
	q.mu.Unlock()
}

// expireLocked sheds pending alerts older than AlertStaleAfter and
// forgets episodes whose fold horizon has passed.
func (q *alertQueue) expireLocked(now time.Time) {
	for i := 0; i < len(q.pending); {
		if p := q.pending[i]; now.Sub(p.offered) > AlertStaleAfter {
			q.shedLocked(p, labelShedStale, now) // swaps another entry into i
			continue
		}
		i++
	}
	n := 0
	for n < len(q.decided) && !now.Before(q.decided[n].foldUntil) {
		delete(q.table, q.decided[n].key)
		n++
	}
	if n > 0 {
		q.decided = slices.Delete(q.decided, 0, n)
	}
}

// shedLocked drops p's pending alert, counted by reason and recorded on
// the alert's own chain.
func (q *alertQueue) shedLocked(p *episode, label string, now time.Time) {
	q.unqueueLocked(p)
	q.countShed(label)
	prov.Record(alertEvent(&p.alert, label, now))
	p.alert = Alert{}
	if !p.inflight {
		delete(q.table, p.key)
	}
}

// countShed counts one alert shed for the reason label names.
func (q *alertQueue) countShed(label string) {
	if label == labelShedStale {
		q.stats.AlertsShedStale.Add(1)
		obsShedStale.Inc()
	} else {
		q.stats.AlertsShedPriority.Add(1)
		obsShedPriority.Inc()
	}
}

// unqueueLocked removes p from the pending set.
func (q *alertQueue) unqueueLocked(p *episode) {
	i := slices.Index(q.pending, p)
	last := len(q.pending) - 1
	q.pending[i] = q.pending[last]
	q.pending[last] = nil
	q.pending = q.pending[:last]
	p.pending = false
	q.depthLocked()
}

func (q *alertQueue) foldedLocked() {
	q.stats.AlertsFolded.Add(1)
	obsAlertsFolded.Inc()
}

func (q *alertQueue) depthLocked() {
	q.stats.AlertsQueued.Store(int64(len(q.pending)))
	q.depth.Set(float64(len(q.pending)))
}

// wakeLocked releases every taker blocked in Take.
func (q *alertQueue) wakeLocked() {
	close(q.wake)
	q.wake = make(chan struct{})
}
