// Package mitigate implements the mitigation-engine xApp: the enforcement
// half of the paper's closed feedback loop (Figure 3, §5 "Automated
// Network Responses"). The analyzer recommends E2SM-XRC control actions;
// this engine decides whether each one may actually be issued — under
// operator guardrails distributed as A1 policy — drives approved actions
// through an explicit lifecycle, journals every decision to the SDL for
// audit, and automatically rolls reversible actions back when their TTL
// expires.
//
// Lifecycle of one action:
//
//	proposed ──governor──► suppressed            (policy/dedup/cooldown/rate)
//	    │
//	    └──► approved ──dry-run──► (journaled, nothing issued)
//	              │
//	              └──enforce──► issued ──► acked ──► active ──TTL──► rolled-back
//	                               │         │                  └──► expired
//	                               └─retry───┴──► failed
package mitigate

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/6g-xsec/xsec/internal/analyzer"
	"github.com/6g-xsec/xsec/internal/asn1lite"
	"github.com/6g-xsec/xsec/internal/e2sm"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/sdl"
	"github.com/6g-xsec/xsec/internal/smo"
)

// Engine observability.
var (
	obsActions = obs.NewCounterVec("xsec_mitigate_actions_total",
		"Mitigation actions, by action class and terminal outcome.", "action", "outcome")
	obsSuppressed = obs.NewCounterVec("xsec_mitigate_suppressed_total",
		"Proposals the governor refused, by reason.", "reason")
	obsLatency = obs.NewHistogram("xsec_mitigate_latency_seconds",
		"Mitigation latency: LLM verdict to E2 control acknowledgment.",
		obs.DefLatencyBuckets)
	obsActive = obs.NewSumGauge("xsec_mitigate_active",
		"Mitigations currently enforced on the RAN, summed over the live engines.")
)

// Mode selects how far the engine goes with an approved action.
type Mode int

// Engine modes.
const (
	// ModeOff suppresses everything; proposals are still journaled.
	ModeOff Mode = iota
	// ModeDryRun runs the full governor and journals the decision but
	// never issues a control — the rehearsal mode for new deployments.
	ModeDryRun
	// ModeEnforce issues approved actions over E2.
	ModeEnforce
)

// String returns the flag spelling ("off", "dry-run", "enforce").
func (m Mode) String() string {
	switch m {
	case ModeDryRun:
		return "dry-run"
	case ModeEnforce:
		return "enforce"
	}
	return "off"
}

// ParseMode parses a flag/policy spelling of a mode.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "off", "":
		return ModeOff, nil
	case "dry-run", "dryrun":
		return ModeDryRun, nil
	case "enforce":
		return ModeEnforce, nil
	}
	return ModeOff, fmt.Errorf("mitigate: unknown mode %q", s)
}

// State is a lifecycle stage of one mitigation action.
type State int

// Lifecycle states.
const (
	StateProposed State = iota
	StateSuppressed
	StateApproved
	StateIssued
	StateAcked
	StateFailed
	StateActive
	StateExpired
	StateRolledBack
)

var stateNames = [...]string{
	"proposed", "suppressed", "approved", "issued",
	"acked", "failed", "active", "expired", "rolled-back",
}

// String returns the journal spelling of the state.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Issuer sends E2 control requests; *ric.XApp satisfies it.
type Issuer interface {
	ControlContext(ctx context.Context, nodeID string, ranFunctionID uint16, header, message []byte) error
}

// Config parameterizes an Engine.
type Config struct {
	// NodeID is the default E2 node to control (alerts carrying their
	// own node ID override it).
	NodeID string
	// Issuer sends the controls (required in enforce mode).
	Issuer Issuer
	// Store persists the audit journal (nil disables journaling).
	Store *sdl.Store
	// Mode is the initial mode (A1 policy can change it at runtime).
	Mode Mode
	// TTL bounds reversible actions; expiry triggers the inverse
	// control. Default 30 s.
	TTL time.Duration

	// clock supplies time (default time.Now). Journal timestamps and
	// rate/cooldown accounting use it; TTL and backoff timers are
	// real-time. Only this package's tests set it.
	clock func() time.Time
}

// Governor and issue tuning.
const (
	// targetCooldown blocks re-mitigating a target after its action
	// leaves the active set.
	targetCooldown = 10 * time.Second
	// issueRate (actions/s) and issueBurst shape the token bucket
	// gating issue volume.
	issueRate  = 2
	issueBurst = 4
	// maxRetries bounds re-issues after a failed control; retryBackoff
	// spaces them, doubling per retry.
	maxRetries   = 2
	retryBackoff = 50 * time.Millisecond
	// controlTimeout bounds each E2 control round trip.
	controlTimeout = 2 * time.Second
)

func (c *Config) defaults() {
	if c.TTL <= 0 {
		c.TTL = 30 * time.Second
	}
	if c.clock == nil {
		c.clock = time.Now
	}
}

// Transition is one journaled lifecycle step.
type Transition struct {
	State string    `json:"state"`
	At    time.Time `json:"at"`
	Note  string    `json:"note,omitempty"`
}

// Entry is the audit-journal record of one proposal, updated in place as
// the action moves through its lifecycle.
type Entry struct {
	ID      uint64 `json:"id"`
	NodeID  string `json:"node_id"`
	Action  string `json:"action"`
	Target  string `json:"target"`
	Class   string `json:"class"`
	Verdict string `json:"verdict"`
	// Digest summarizes the triggering window (seq range, record count
	// and prov.DigestRecords over it) so an auditor can match the journal
	// to telemetry.
	Digest string `json:"window_digest"`
	// Chain is the provenance chain ID ("node/sn") of the E2 indication
	// whose flagged window led to this action, joining the journal to
	// the prov/ledger evidence chain. Empty for offline replays.
	Chain string `json:"chain,omitempty"`
	// Decision is the governor's call: "approved", "dry-run", or
	// "suppressed:<reason>".
	Decision string       `json:"decision"`
	Mode     string       `json:"mode"`
	State    string       `json:"state"`
	History  []Transition `json:"history"`
}

// Acked reports whether the gNB acknowledged the action's control: its
// history passed through StateAcked, whatever followed (active,
// expired, rolled back).
func (en Entry) Acked() bool {
	for _, tr := range en.History {
		if tr.State == StateAcked.String() {
			return true
		}
	}
	return false
}

// JournalNS is the SDL namespace holding audit entries.
const JournalNS = "mitigate/journal"

// action is the engine-internal lifecycle record.
type action struct {
	entry   Entry
	req     *e2sm.ControlRequest
	nodeID  string
	chain   prov.ChainID // evidence chain of the triggering indication
	verdict time.Time    // latency epoch: when the LLM verdict landed
	ttl     time.Duration
}

// Engine is the mitigation xApp.
type Engine struct {
	cfg Config

	mu         sync.Mutex
	mode       Mode
	deny       map[string]bool
	ttl        time.Duration
	nextID     uint64
	inflight   map[string]uint64    // target → action ID holding the slot
	cooldown   map[string]time.Time // target → earliest re-mitigation
	timers     map[uint64]*time.Timer
	actions    map[uint64]*action // live actions; terminal ones are only in the journal
	active     int
	tokens     float64
	lastRefill time.Time
	closed     bool

	wg sync.WaitGroup
	// unregister removes the engine from xsec_mitigate_active.
	unregister func()
}

// New builds an engine. Close it to stop TTL timers and in-flight work.
func New(cfg Config) *Engine {
	cfg.defaults()
	e := &Engine{
		cfg:        cfg,
		mode:       cfg.Mode,
		deny:       map[string]bool{},
		ttl:        cfg.TTL,
		inflight:   map[string]uint64{},
		cooldown:   map[string]time.Time{},
		timers:     map[uint64]*time.Timer{},
		actions:    map[uint64]*action{},
		tokens:     issueBurst,
		lastRefill: cfg.clock(),
	}
	e.unregister = obsActive.Add(func() float64 { return float64(e.ActiveCount()) })
	return e
}

// Mode reports the current mode.
func (e *Engine) Mode() Mode {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mode
}

// ActiveCount reports mitigations currently enforced.
func (e *Engine) ActiveCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.active
}

// ApplyPolicy absorbs the mitigation fields of an A1 policy: mode,
// per-action-class deny list, and rollback TTL. Unset fields leave the
// current configuration untouched.
func (e *Engine) ApplyPolicy(p smo.Policy) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if p.MitigationMode != "" {
		if m, err := ParseMode(p.MitigationMode); err == nil {
			e.mode = m
		} else {
			obs.L().Warn("mitigate: ignoring invalid policy mode",
				"policy", p.ID, "mode", p.MitigationMode)
		}
	}
	if p.DenyActions != nil {
		e.deny = make(map[string]bool, len(p.DenyActions))
		for _, a := range p.DenyActions {
			e.deny[strings.ToLower(strings.TrimSpace(a))] = true
		}
	}
	if p.MitigationTTLMS > 0 {
		e.ttl = time.Duration(p.MitigationTTLMS) * time.Millisecond
	}
}

// Submit runs one analyzer case through the governor. It returns the
// journal entry snapshot describing the decision; issuing, acking, and
// rollback proceed asynchronously. Cases without a recommended control
// are ignored (nil entry).
func (e *Engine) Submit(c *analyzer.Case) *Entry {
	if c == nil || c.Control == nil {
		return nil
	}
	nodeID := c.Alert.NodeID
	if nodeID == "" {
		nodeID = e.cfg.NodeID
	}
	now := e.cfg.clock()

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.nextID++
	// Offline replays carry no indication identity; their chain stays
	// empty and no provenance events are recorded for them.
	var chain prov.ChainID
	if c.Alert.NodeID != "" {
		chain = prov.ChainID{Node: c.Alert.NodeID, SN: c.Alert.IndicationSN}
	}
	act := &action{
		req:     c.Control,
		nodeID:  nodeID,
		chain:   chain,
		verdict: c.ProcessedAt,
		ttl:     e.ttl,
		entry: Entry{
			ID:      e.nextID,
			NodeID:  nodeID,
			Action:  c.Control.Action.String(),
			Target:  targetKey(c.Control),
			Verdict: verdictOf(c),
			Class:   classOf(c),
			Digest:  windowDigest(c.Alert.Window),
			Mode:    e.mode.String(),
		},
	}
	if chain.Node != "" {
		act.entry.Chain = chain.String()
	}
	e.actions[act.entry.ID] = act
	e.recordLocked(act, StateProposed, "", now)

	reason, approved := e.governLocked(act, now)
	var snapshot Entry
	switch {
	case !approved:
		act.entry.Decision = "suppressed:" + reason
		e.recordLocked(act, StateSuppressed, reason, now)
		delete(e.actions, act.entry.ID)
		obsSuppressed.With(reason).Inc()
	case e.mode == ModeDryRun:
		act.entry.Decision = "dry-run"
		e.recordLocked(act, StateApproved, "dry-run: control withheld", now)
		delete(e.actions, act.entry.ID) // a rehearsal ends at approval
		obsActions.With(act.entry.Action, "dry_run").Inc()
	default:
		act.entry.Decision = "approved"
		e.recordLocked(act, StateApproved, "", now)
		e.inflight[act.entry.Target] = act.entry.ID
		e.wg.Add(1)
		go e.issue(act)
	}
	snapshot = act.entry
	e.mu.Unlock()
	return &snapshot
}

// governLocked applies the guardrails in order; the first closed gate
// names the suppression reason.
func (e *Engine) governLocked(act *action, now time.Time) (reason string, approved bool) {
	if e.mode == ModeOff {
		return "mode-off", false
	}
	if e.deny[act.entry.Action] {
		return "policy-denied", false
	}
	if _, dup := e.inflight[act.entry.Target]; dup {
		return "duplicate", false
	}
	if until, ok := e.cooldown[act.entry.Target]; ok && now.Before(until) {
		return "cooldown", false
	}
	// Token bucket: refill on demand, spend one token per approval —
	// including dry-run approvals, so the rehearsal journal predicts
	// enforce-mode behavior faithfully.
	elapsed := now.Sub(e.lastRefill).Seconds()
	if elapsed > 0 {
		e.tokens = min(e.tokens+elapsed*issueRate, issueBurst)
		e.lastRefill = now
		// Time moved: forget the cooldowns it ended, so the map holds
		// targets mitigated within one targetCooldown, not every target ever.
		for target, until := range e.cooldown {
			if !now.Before(until) {
				delete(e.cooldown, target)
			}
		}
	}
	if e.tokens < 1 {
		return "rate-limited", false
	}
	e.tokens--
	if e.mode == ModeEnforce && e.cfg.Issuer == nil {
		return "no-issuer", false
	}
	return "", true
}

// issue drives one approved action over E2 with retries, then arms the
// TTL rollback for reversible actions.
func (e *Engine) issue(act *action) {
	defer e.wg.Done()
	payload := asn1lite.Marshal(act.req)

	e.record(act, StateIssued, "")
	err := e.sendWithRetries(act, payload)
	if err != nil {
		e.mu.Lock()
		delete(e.inflight, act.entry.Target)
		e.recordLocked(act, StateFailed, err.Error(), e.cfg.clock())
		delete(e.actions, act.entry.ID)
		e.mu.Unlock()
		obsActions.With(act.entry.Action, "failed").Inc()
		obs.L().Warn("mitigate: control failed", "action", act.entry.Action,
			"target", act.entry.Target, "err", err)
		return
	}
	now := e.cfg.clock()
	obsLatency.Observe(now.Sub(act.verdict).Seconds())
	obsActions.With(act.entry.Action, "acked").Inc()

	e.mu.Lock()
	e.recordLocked(act, StateAcked, "", now)
	if _, reversible := act.req.Action.Inverse(); !reversible {
		// One-shot actions (e.g. release-ue) are complete at ack: they
		// leave the active set immediately, holding only the cooldown.
		e.cooldown[act.entry.Target] = now.Add(targetCooldown)
		delete(e.inflight, act.entry.Target)
		e.recordLocked(act, StateExpired, "one-shot action complete", now)
		delete(e.actions, act.entry.ID)
		e.mu.Unlock()
		obsActions.With(act.entry.Action, "expired").Inc()
		return
	}
	e.active++
	e.recordLocked(act, StateActive, fmt.Sprintf("ttl %s armed", act.ttl), now)
	if !e.closed {
		id := act.entry.ID
		e.timers[id] = time.AfterFunc(act.ttl, func() { e.expire(id) })
	}
	e.mu.Unlock()
	obs.L().Info("mitigate: action active", "action", act.entry.Action,
		"target", act.entry.Target, "node", act.nodeID, "ttl", act.ttl)
}

// expire fires at TTL: the reversible action is undone by issuing its
// inverse control.
func (e *Engine) expire(id uint64) {
	e.mu.Lock()
	act := e.actions[id]
	delete(e.timers, id)
	if act == nil || e.closed {
		e.mu.Unlock()
		return
	}
	e.recordLocked(act, StateExpired, "ttl reached, rolling back", e.cfg.clock())
	e.wg.Add(1)
	e.mu.Unlock()

	go func() {
		defer e.wg.Done()
		inv, _ := act.req.Action.Inverse()
		payload := asn1lite.Marshal(&e2sm.ControlRequest{
			Action: inv,
			UEID:   act.req.UEID,
			TMSI:   act.req.TMSI,
			Reason: "ttl rollback of " + act.entry.Action,
		})
		err := e.sendWithRetries(act, payload)

		now := e.cfg.clock()
		e.mu.Lock()
		e.active--
		e.cooldown[act.entry.Target] = now.Add(targetCooldown)
		delete(e.inflight, act.entry.Target)
		delete(e.actions, act.entry.ID)
		if err != nil {
			e.recordLocked(act, StateFailed, "rollback: "+err.Error(), now)
			e.mu.Unlock()
			obsActions.With(act.entry.Action, "rollback_failed").Inc()
			obs.L().Warn("mitigate: rollback failed", "action", act.entry.Action,
				"target", act.entry.Target, "err", err)
			return
		}
		e.recordLocked(act, StateRolledBack, "", now)
		e.mu.Unlock()
		obsActions.With(act.entry.Action, "rolled_back").Inc()
		obs.L().Info("mitigate: action rolled back", "action", act.entry.Action,
			"target", act.entry.Target)
	}()
}

// sendWithRetries performs the E2 control with per-attempt timeout and
// backoff between attempts.
func (e *Engine) sendWithRetries(act *action, payload []byte) error {
	var err error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(retryBackoff << (attempt - 1))
			e.record(act, StateIssued, fmt.Sprintf("retry %d", attempt))
		}
		ctx, cancel := context.WithTimeout(context.Background(), controlTimeout)
		err = e.cfg.Issuer.ControlContext(ctx, act.nodeID, e2sm.XRCRANFunctionID, nil, payload)
		cancel()
		if err == nil {
			return nil
		}
	}
	return err
}

// record appends a lifecycle transition and persists the entry.
func (e *Engine) record(act *action, s State, note string) {
	e.mu.Lock()
	e.recordLocked(act, s, note, e.cfg.clock())
	e.mu.Unlock()
}

func (e *Engine) recordLocked(act *action, s State, note string, at time.Time) {
	act.entry.State = s.String()
	act.entry.History = append(act.entry.History, Transition{State: s.String(), At: at, Note: note})
	// Every lifecycle transition also joins the evidence chain of the
	// indication that triggered the action (the journal stays the
	// authoritative record; the ledger links it to its upstream cause).
	if act.chain.Node != "" {
		prov.Record(prov.Event{
			Chain:    act.chain,
			Kind:     prov.KindMitigation,
			At:       at,
			ActionID: act.entry.ID,
			Action:   act.entry.Action,
			Target:   act.entry.Target,
			UEID:     act.req.UEID,
			Label:    s.String(),
			Note:     note,
		})
	}
	if e.cfg.Store == nil {
		return
	}
	data, err := json.Marshal(&act.entry)
	if err != nil {
		return
	}
	// The marshal buffer is single-use; the store takes ownership
	// rather than copying it.
	e.cfg.Store.SetOwned(JournalNS, fmt.Sprintf("act/%020d", act.entry.ID), data)
}

// Entries reads the audit journal back from the SDL, ordered by action ID.
func Entries(store *sdl.Store) []Entry {
	if store == nil {
		return nil
	}
	raw := store.GetAll(JournalNS, "act/")
	keys := make([]string, 0, len(raw))
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Entry, 0, len(keys))
	for _, k := range keys {
		var en Entry
		if json.Unmarshal(raw[k], &en) == nil {
			out = append(out, en)
		}
	}
	return out
}

// Quiesce blocks until issued controls and fired rollbacks settle. TTL
// timers that have not fired yet are unaffected.
func (e *Engine) Quiesce() { e.wg.Wait() }

// Close stops TTL timers and waits for in-flight work. Active
// mitigations are left in place (the RAN keeps enforcing them); their
// journal entries stay in StateActive.
func (e *Engine) Close() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	for id, t := range e.timers {
		t.Stop()
		delete(e.timers, id)
	}
	e.mu.Unlock()
	e.wg.Wait()
	e.unregister()
}

// targetKey canonicalizes what a control acts on, the unit of dedup and
// cooldown.
func targetKey(req *e2sm.ControlRequest) string {
	switch req.Action {
	case e2sm.ControlBlockTMSI, e2sm.ControlUnblockTMSI:
		return fmt.Sprintf("tmsi/%d", req.TMSI)
	case e2sm.ControlReleaseUE:
		return fmt.Sprintf("ue/%d", req.UEID)
	}
	// Node-wide actions (security policy toggles) share one slot.
	return "node"
}

func verdictOf(c *analyzer.Case) string {
	if c.Analysis == nil {
		return ""
	}
	return c.Analysis.Verdict.String()
}

func classOf(c *analyzer.Case) string {
	if c.Analysis == nil {
		return ""
	}
	return c.Analysis.TopClass().String()
}

// windowDigest fingerprints the triggering window: sequence range, record
// count, and the evidence chain's digest of its records (seq, message
// and UE of each).
func windowDigest(w mobiflow.Trace) string {
	if len(w) == 0 {
		return ""
	}
	return fmt.Sprintf("seq[%d..%d]n%d#%s", w[0].Seq, w[len(w)-1].Seq, len(w), prov.DigestRecords(w))
}
