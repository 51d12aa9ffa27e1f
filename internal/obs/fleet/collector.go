package fleet

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// CollectorOptions configure the SMO-side fleet collector.
type CollectorOptions struct {
	// Publish sends a payload on a federation bus topic — typically
	// Broker-local. Required for scraping; heartbeats and reports arrive
	// via OnHeartbeat/OnReport regardless.
	Publish func(topic string, payload []byte) error
	// Evict removes a dead instance from the federation ring. Called at
	// most once per death; a rejoin re-arms it. Optional.
	Evict func(instance string) error
	// Store persists the health journal and feeds the trace stitcher
	// (migration audits live in the same store). Optional.
	Store *sdl.Store

	// clock injects time (default time.Now); only this package's tests
	// set it.
	clock func() time.Time
}

// The fleet plane's one timebase, compressed so the testbed notices a
// crash in well under a second: instances beacon every HeartbeatPeriod,
// an instance is suspect after 5 missed beacons and dead (and evicted
// from the ring) after 12.
const (
	HeartbeatPeriod = 50 * time.Millisecond
	suspectAfter    = 250 * time.Millisecond
	// DeadAfter is the silence after which the detector declares an
	// instance dead — the floor of a crash's kill-to-evict time.
	DeadAfter = 600 * time.Millisecond
	// scrapePeriod is the cadence of snapshot pull rounds, sweepPeriod
	// the failure-detector tick.
	scrapePeriod = 500 * time.Millisecond
	sweepPeriod  = HeartbeatPeriod / 2
)

// burnFastWindow and burnSlowWindow are the multi-window burn-rate
// alert windows, scaled for the testbed's compressed timebase;
// production deployments would use 5m/1h.
const (
	burnFastWindow = 30 * time.Second
	burnSlowWindow = 3 * time.Minute
)

// Collector is the fleet observability plane's SMO half: failure
// detector, metrics federator, SLO engine, and trace stitcher.
type Collector struct {
	opts CollectorOptions

	mu      sync.Mutex
	health  map[string]*InstanceHealth
	merges  map[string]*instanceMerge
	reports map[string]Report // latest report per instance
	rollups []obs.SeriesSnapshot
	slos    []*sloState
	// rate tracking for the fleet indication-rate gauge
	lastRecords  map[string]uint64
	lastRecordAt time.Time
	scrapeSeq    uint64
	journalSeq   uint64
	pending      map[uint64]*scrapeRound

	stop chan struct{}
	done sync.WaitGroup
	once sync.Once
}

type scrapeRound struct {
	started time.Time
	want    map[string]bool
	got     map[string]bool
	doneCh  chan struct{}
}

// NewCollector builds a collector; call Start to run its loops, or
// drive OnHeartbeat/Sweep/ScrapeOnce directly in tests.
func NewCollector(opts CollectorOptions) *Collector {
	if opts.clock == nil {
		opts.clock = time.Now
	}
	return &Collector{
		opts:        opts,
		health:      make(map[string]*InstanceHealth),
		merges:      make(map[string]*instanceMerge),
		reports:     make(map[string]Report),
		lastRecords: make(map[string]uint64),
		pending:     make(map[uint64]*scrapeRound),
		stop:        make(chan struct{}),
	}
}

// Start runs the sweep and scrape loops until Stop.
func (c *Collector) Start() {
	c.done.Add(2)
	go func() {
		defer c.done.Done()
		t := time.NewTicker(sweepPeriod)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.Sweep(c.opts.clock())
			}
		}
	}()
	go func() {
		defer c.done.Done()
		t := time.NewTicker(scrapePeriod)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.ScrapeOnce()
			}
		}
	}()
}

// Stop halts the loops. Safe to call more than once.
func (c *Collector) Stop() {
	c.once.Do(func() { close(c.stop) })
	c.done.Wait()
}

// OnHeartbeat ingests one instance heartbeat: refreshes the failure
// detector and rejoins suspect/dead instances.
func (c *Collector) OnHeartbeat(hb Heartbeat) {
	now := c.opts.clock()
	obsHeartbeats.Inc()

	c.mu.Lock()
	h := c.health[hb.Instance]
	if h == nil {
		h = &InstanceHealth{Instance: hb.Instance, State: StateAlive, LastHeartbeat: now}
		c.health[hb.Instance] = h
		obsLogJoin(hb.Instance)
	}
	// Replayed heartbeats (the broker retains the topic) carry stale
	// sequence numbers; only newer beacons refresh liveness.
	if hb.Seq < h.HeartbeatSeq {
		c.mu.Unlock()
		return
	}
	var rejoined State
	var wasDown bool
	if h.State != StateAlive {
		rejoined, wasDown = h.State, true
	}
	h.State = StateAlive
	h.Node = hb.Node
	h.LastHeartbeat = now
	h.HeartbeatSeq = hb.Seq
	h.Epoch = hb.Epoch
	h.UEs = hb.UEs
	h.Records = hb.Records
	h.EvictedAt = time.Time{}
	c.updateStateGaugesLocked()
	c.mu.Unlock()

	if wasDown {
		c.journal(Transition{
			Instance: hb.Instance, From: rejoined, To: StateAlive,
			At: now, Reason: "heartbeat resumed",
		})
	}
}

// OnReport ingests one scrape report: relabels and reset-adjusts the
// instance's series, recomputes rollups, feeds the SLO engine, and
// completes any pending scrape round the report answers.
func (c *Collector) OnReport(rep Report) {
	now := c.opts.clock()
	obsReports.With(rep.Instance).Inc()

	c.mu.Lock()
	m := c.merges[rep.Instance]
	if m == nil {
		m = newInstanceMerge()
		c.merges[rep.Instance] = m
	}
	relabeled := make([]obs.SeriesSnapshot, 0, len(rep.Series))
	for _, s := range rep.Series {
		relabeled = append(relabeled, relabel(rep.Instance, s))
	}
	m.absorb(relabeled)
	c.reports[rep.Instance] = rep
	c.recomputeLocked(now)

	// Close out the scrape round once every live instance has answered.
	if round := c.pending[rep.Seq]; round != nil {
		round.got[rep.Instance] = true
		doneAll := true
		for id := range round.want {
			if !round.got[id] {
				doneAll = false
				break
			}
		}
		if doneAll {
			obsScrapeSeconds.Observe(now.Sub(round.started).Seconds())
			close(round.doneCh)
			delete(c.pending, rep.Seq)
		}
	}
	c.mu.Unlock()
}

// recomputeLocked rebuilds rollups, the indication-rate gauge, and the
// SLO sample rings. Caller holds c.mu.
func (c *Collector) recomputeLocked(now time.Time) {
	c.rollups = computeRollups(c.merges)

	// Fleet indication rate from the merged records counter delta.
	var total float64
	for _, s := range c.rollups {
		if s.Name == "xsec_fleet_records_total" {
			total += s.Value
		}
	}
	if !c.lastRecordAt.IsZero() {
		dt := now.Sub(c.lastRecordAt).Seconds()
		if prev, ok := c.lastRecords["_fleet"]; ok && dt > 0 && total >= float64(prev) {
			obsIndRate.Set((total - float64(prev)) / dt)
		}
	}
	c.lastRecords["_fleet"] = uint64(total)
	c.lastRecordAt = now

	if c.slos == nil {
		for _, obj := range defaultObjectives() {
			c.slos = append(c.slos, &sloState{obj: obj})
		}
	}
	keep := 2 * burnSlowWindow
	for _, st := range c.slos {
		st.observe(now, c.rollups, keep)
		fast := st.burnRate(now, burnFastWindow)
		slow := st.burnRate(now, burnSlowWindow)
		obsSLOBurn.With(st.obj.Name, "fast").Set(fast)
		obsSLOBurn.With(st.obj.Name, "slow").Set(slow)
		firing := 0.0
		if fast > burnThreshold && slow > burnThreshold {
			firing = 1
		}
		obsSLOFiring.With(st.obj.Name).Set(firing)
	}
}

// Sweep advances the failure detector to now: alive instances whose
// heartbeat deadline lapsed go suspect, suspects past the dead deadline
// go dead (triggering eviction). Exposed for deterministic tests; the
// Start loop calls it on every tick.
func (c *Collector) Sweep(now time.Time) {
	type evictee struct{ instance string }
	var transitions []Transition
	var evict []evictee

	c.mu.Lock()
	for id, h := range c.health {
		silent := now.Sub(h.LastHeartbeat)
		switch h.State {
		case StateAlive:
			if silent >= suspectAfter {
				h.State = StateSuspect
				transitions = append(transitions, Transition{
					Instance: id, From: StateAlive, To: StateSuspect, At: now,
					Reason: fmt.Sprintf("no heartbeat for %s", silent.Round(time.Millisecond)),
				})
			}
		case StateSuspect:
			if silent >= DeadAfter {
				h.State = StateDead
				h.EvictedAt = now
				transitions = append(transitions, Transition{
					Instance: id, From: StateSuspect, To: StateDead, At: now,
					Reason: fmt.Sprintf("no heartbeat for %s, evicting", silent.Round(time.Millisecond)),
				})
				evict = append(evict, evictee{instance: id})
			}
		}
	}
	if len(transitions) > 0 {
		c.updateStateGaugesLocked()
	}
	c.mu.Unlock()

	for _, tr := range transitions {
		c.journal(tr)
	}
	for _, e := range evict {
		obsEvictions.Inc()
		if c.opts.Evict != nil {
			if err := c.opts.Evict(e.instance); err != nil {
				obs.L().Warn("fleet: evict failed", "instance", e.instance, "err", err)
			}
		}
	}
}

// updateStateGaugesLocked refreshes xsec_fleet_instances. Caller holds
// c.mu.
func (c *Collector) updateStateGaugesLocked() {
	counts := map[State]int{}
	for _, h := range c.health {
		counts[h.State]++
	}
	for st := StateAlive; st <= StateDead; st++ {
		obsInstances.With(st.String()).Set(float64(counts[st]))
	}
}

// journal persists a failure-detector transition to the SDL and the
// provenance ledger, and bumps the transition metrics.
func (c *Collector) journal(tr Transition) {
	c.mu.Lock()
	c.journalSeq++
	tr.Seq = c.journalSeq
	c.mu.Unlock()

	obsTransitions.With(tr.To.String()).Inc()
	obs.L().Info("fleet: state transition", "instance", tr.Instance,
		"from", tr.From.String(), "to", tr.To.String(), "reason", tr.Reason)

	if c.opts.Store != nil {
		if raw, err := json.Marshal(tr); err == nil {
			key := fmt.Sprintf("%08d/%s", tr.Seq, tr.Instance)
			c.opts.Store.Set(JournalNamespace, key, raw)
		}
	}
	prov.Record(prov.Event{
		Chain:  prov.ChainID{Node: JournalNode, SN: tr.Seq},
		Kind:   prov.KindFleet,
		At:     tr.At,
		Label:  tr.To.String(),
		Target: tr.Instance,
		Note:   tr.Reason,
	})
}

// ScrapeOnce publishes one snapshot pull request and returns a channel
// closed when every live instance has answered (nil when there is no
// Publish hook or no live instance — nothing to wait for).
func (c *Collector) ScrapeOnce() <-chan struct{} {
	if c.opts.Publish == nil {
		return nil
	}
	now := c.opts.clock()

	c.mu.Lock()
	c.scrapeSeq++
	seq := c.scrapeSeq
	want := make(map[string]bool)
	for id, h := range c.health {
		if h.State != StateDead {
			want[id] = true
		}
	}
	var round *scrapeRound
	if len(want) > 0 {
		round = &scrapeRound{started: now, want: want, got: map[string]bool{}, doneCh: make(chan struct{})}
		c.pending[seq] = round
		// Drop stale rounds so a crashed instance can't leak them.
		for s := range c.pending {
			if s+4 < seq {
				delete(c.pending, s)
			}
		}
	}
	c.mu.Unlock()

	obsScrapes.Inc()
	req := ScrapeRequest{Seq: seq, UnixNanos: now.UnixNano()}
	payload, err := req.Encode()
	if err == nil {
		err = c.opts.Publish(TopicScrape, payload)
	}
	if err != nil {
		obs.L().Warn("fleet: scrape publish failed", "seq", seq, "err", err)
		return nil
	}
	if round == nil {
		return nil
	}
	return round.doneCh
}

// Health returns every instance's failure-detector row, sorted by
// instance ID.
func (c *Collector) Health() []InstanceHealth {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]InstanceHealth, 0, len(c.health))
	for _, h := range c.health {
		out = append(out, *h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Instance < out[j].Instance })
	return out
}

// Alive reports how many instances the detector currently holds alive.
func (c *Collector) Alive() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, h := range c.health {
		if h.State == StateAlive {
			n++
		}
	}
	return n
}

// MergedSeries returns the federated snapshot: every instance's
// reset-adjusted series under its "instance" label, followed by the
// xsec_fleet_* rollups.
func (c *Collector) MergedSeries() []obs.SeriesSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []obs.SeriesSnapshot
	ids := make([]string, 0, len(c.merges))
	for id := range c.merges {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		out = append(out, c.merges[id].adjusted...)
	}
	out = append(out, c.rollups...)
	return out
}

// SLO evaluates every objective now and returns their statuses.
func (c *Collector) SLO() []SLOStatus {
	now := c.opts.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SLOStatus, 0, len(c.slos))
	for _, st := range c.slos {
		ratio, good, total := st.sli()
		s := SLOStatus{
			Name:        st.obj.Name,
			Description: st.obj.Description,
			Target:      st.obj.Target,
			SLI:         ratio,
			Good:        good,
			Total:       total,
			BurnFast:    st.burnRate(now, burnFastWindow),
			BurnSlow:    st.burnRate(now, burnSlowWindow),
			FastWindow:  burnFastWindow,
			SlowWindow:  burnSlowWindow,
			Threshold:   burnThreshold,
		}
		s.Firing = s.BurnFast > s.Threshold && s.BurnSlow > s.Threshold
		out = append(out, s)
	}
	return out
}

// Traces stitches cross-instance distributed traces from the prov
// ledger's migration links plus every instance's reported spans.
func (c *Collector) Traces() []StitchedTrace {
	if c.opts.Store == nil {
		return nil
	}
	c.mu.Lock()
	reports := make(map[string]Report, len(c.reports))
	for id, r := range c.reports {
		reports[id] = r
	}
	health := make(map[string]*InstanceHealth, len(c.health))
	for id, h := range c.health {
		cp := *h
		health[id] = &cp
	}
	c.mu.Unlock()
	return Stitch(c.opts.Store, buildSpanIndex(reports), health)
}

// obsLogJoin notes the first sighting of an instance.
func obsLogJoin(instance string) {
	obs.L().Info("fleet: tracking instance", "instance", instance)
}
