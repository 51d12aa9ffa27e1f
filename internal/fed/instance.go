package fed

import (
	"fmt"
	"sync"
	"time"

	"github.com/6g-xsec/xsec/internal/asn1lite"
	"github.com/6g-xsec/xsec/internal/core"
	"github.com/6g-xsec/xsec/internal/gnb"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/obs/fleet"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/sdl"
	"github.com/6g-xsec/xsec/internal/smo"
	"github.com/6g-xsec/xsec/internal/wire"
)

// migrateMsg carries one UE's checkpointed state toward its new owner
// on TopicMigrate. Trace is the provenance chain key of the UE's last
// scored indication on the source — the trace context that lets the
// destination's restore span (and everything after it) stitch onto the
// source's trace.
type migrateMsg struct {
	Epoch    uint64
	Source   string
	Dest     string
	UE       uint64
	Snapshot []byte
	Trace    string
}

func (m *migrateMsg) MarshalTLV(e *asn1lite.Encoder) {
	e.PutUint(1, m.Epoch)
	e.PutString(2, m.Source)
	e.PutString(3, m.Dest)
	e.PutUint(4, m.UE)
	e.PutBytes(5, m.Snapshot)
	if m.Trace != "" {
		e.PutString(6, m.Trace)
	}
}

func (m *migrateMsg) UnmarshalTLV(d *asn1lite.Decoder) error {
	*m = migrateMsg{}
	for d.Next() {
		var err error
		switch d.Tag() {
		case 1:
			m.Epoch, err = d.Uint()
		case 2:
			m.Source, err = d.String()
		case 3:
			m.Dest, err = d.String()
		case 4:
			m.UE, err = d.Uint()
		case 5:
			m.Snapshot, err = d.Bytes()
		case 6:
			m.Trace, err = d.String()
		}
		if err != nil {
			return err
		}
	}
	return d.Err()
}

// migrateAck confirms a restore on TopicMigrateAck; Source addresses the
// instance that may now forget the UE. Trace echoes the migration's
// trace context so the ack hop lands on the same distributed trace.
type migrateAck struct {
	Source string
	Dest   string
	UE     uint64
	Trace  string
}

func (m *migrateAck) MarshalTLV(e *asn1lite.Encoder) {
	e.PutString(1, m.Source)
	e.PutString(2, m.Dest)
	e.PutUint(3, m.UE)
	if m.Trace != "" {
		e.PutString(4, m.Trace)
	}
}

func (m *migrateAck) UnmarshalTLV(d *asn1lite.Decoder) error {
	*m = migrateAck{}
	for d.Next() {
		var err error
		switch d.Tag() {
		case 1:
			m.Source, err = d.String()
		case 2:
			m.Dest, err = d.String()
		case 3:
			m.UE, err = d.Uint()
		case 4:
			m.Trace, err = d.String()
		}
		if err != nil {
			return err
		}
	}
	return d.Err()
}

// InstanceOptions configures one federated RIC instance.
type InstanceOptions struct {
	// ID is the instance's federation identity (e.g. "ric-0").
	ID string
	// Models are the deployed MobiWatch models (required).
	Models *mobiwatch.Models
	// BusAddr is the broker address; empty runs the instance standalone
	// (no federation, detection only).
	BusAddr string
	// Dial overrides the bus transport (tests inject failures).
	Dial func() (*wire.Conn, error)
	// ShardBuffer bounds each MobiWatch shard queue (see
	// mobiwatch.RunOptions).
	ShardBuffer int
	// MigrationTimeout bounds checkpoint-to-ack for one outbound
	// migration (default 5s); on expiry the UE stays local.
	MigrationTimeout time.Duration
	// HeartbeatPeriod is the fleet-plane liveness beacon cadence
	// (default 500ms; negative disables heartbeats).
	HeartbeatPeriod time.Duration
}

const (
	// scoringShards is the MobiWatch worker count per instance;
	// indications are sharded by UE, so one UE's records stay in order
	// on one worker.
	scoringShards = 2
	// reportPeriod is the E2 report period the instance subscribes with —
	// the one every shipped cmd/, examples/ and benchmark/ caller uses.
	// Injected records sit in the gNB agent for at most one period, so
	// callers quiesce (Cluster.WaitRecords) before Kill, Leave or a
	// handover.
	reportPeriod = 10 * time.Millisecond
	// maxConcurrentMigrations bounds parallel outbound migrations during
	// a rebalance, so a ring change cannot stampede the bus.
	maxConcurrentMigrations = 4
	// ownerTTL is the ownership lease written on restore.
	ownerTTL = 10 * time.Second
)

func (o *InstanceOptions) defaults() error {
	if o.ID == "" {
		return fmt.Errorf("fed: instance ID required")
	}
	if o.Models == nil {
		return fmt.Errorf("fed: instance %s: models required", o.ID)
	}
	if o.MigrationTimeout == 0 {
		o.MigrationTimeout = 5 * time.Second
	}
	if o.HeartbeatPeriod == 0 {
		o.HeartbeatPeriod = 500 * time.Millisecond
	}
	return nil
}

// Instance is one federated near-RT RIC: a core.Node — the whole loop,
// gNB agent to mitigation engine, wired as core.New wires it — plus what
// is federation: the bus endpoints of the migration protocol, the ring,
// heartbeats and the fleet scrape. When the bus is unreachable the
// instance keeps detecting standalone — federation degrades, the
// security function does not.
type Instance struct {
	opts InstanceOptions
	id   string // opts.ID
	node *core.Node
	bus  *Client

	// scoreReg is a private registry holding this instance's
	// score-latency histogram: colocated instances share the process
	// Default registry, so instance-attributed series for the fleet
	// plane are built here instead (see ObsSnapshot).
	scoreReg *obs.Registry

	hbStop chan struct{}
	hbWG   sync.WaitGroup

	mu       sync.Mutex
	ring     *Ring
	inflight map[uint64]*outMigration
	migSem   chan struct{}
	stopped  bool
}

type outMigration struct {
	start time.Time
	done  chan struct{}
}

// StartInstance brings one instance up and, when a bus address is
// configured, joins it to the federation topics.
func StartInstance(opts InstanceOptions) (*Instance, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	// Deploy a private copy of the models: A1 threshold policies mutate
	// the runtime's model state, and federated instances apply policies
	// independently.
	saved, err := opts.Models.Save()
	if err != nil {
		return nil, fmt.Errorf("fed: instance %s: %w", opts.ID, err)
	}
	models, err := mobiwatch.Load(saved)
	if err != nil {
		return nil, fmt.Errorf("fed: instance %s: %w", opts.ID, err)
	}
	// The instance owns its SDL and stamps telemetry with wall time; no
	// RAN procedure runs here — drills and benches inject MobiFlow
	// records with the UE identities they need. The engine starts "off":
	// a fleet's mode is the coordinator's to push (onPolicy).
	node, err := core.NewNode(core.Options{NodeID: "gnb-" + opts.ID, Mitigate: "off"}, sdl.New(), nil)
	if err != nil {
		return nil, fmt.Errorf("fed: instance %s: %w", opts.ID, err)
	}
	i := &Instance{
		opts:     opts,
		id:       opts.ID,
		node:     node,
		inflight: make(map[uint64]*outMigration),
		migSem:   make(chan struct{}, maxConcurrentMigrations),
		scoreReg: obs.NewRegistry(),
		hbStop:   make(chan struct{}),
	}
	err = node.Deploy(models, mobiwatch.RunOptions{
		Shards:       scoringShards,
		ShardBuffer:  opts.ShardBuffer,
		ReportPeriod: reportPeriod,
		ScoreLatency: i.scoreReg.HistogramVec("xsec_mobiwatch_score_seconds",
			"Streaming-inference latency per telemetry batch (this instance only).",
			obs.ExpBuckets(1e-6, 4, 12)).With(),
	})
	if err != nil {
		node.Close()
		return nil, fmt.Errorf("fed: instance %s: %w", opts.ID, err)
	}

	dial := opts.Dial
	if dial == nil && opts.BusAddr != "" {
		addr := opts.BusAddr
		dial = func() (*wire.Conn, error) { return wire.Dial(addr, time.Second) }
	}
	if dial != nil {
		i.bus = NewClient(opts.ID, dial)
		i.bus.Subscribe(TopicRing, i.onRing)
		i.bus.Subscribe(TopicPolicy, i.onPolicy)
		i.bus.SubscribeTraced(TopicMigrate, i.onMigrate)
		i.bus.SubscribeTraced(TopicMigrateAck, i.onAck)
		i.bus.Subscribe(fleet.TopicScrape, i.onScrape)
		if opts.HeartbeatPeriod > 0 {
			i.hbWG.Add(1)
			go i.heartbeatLoop(opts.HeartbeatPeriod)
		}
	}
	obs.RegisterHealthDetail("fed/"+opts.ID, i.healthDetail)
	return i, nil
}

// ID returns the instance's federation identity.
func (i *Instance) ID() string { return i.id }

// GNB returns the instance's E2 node: the shipped gNB agent. Feed it
// with InjectTelemetry; records reach the scorer within one report
// period.
func (i *Instance) GNB() *gnb.GNB { return i.node.GNB }

// Runtime returns the MobiWatch runtime (stats, thresholds, UE state).
func (i *Instance) Runtime() *mobiwatch.Runtime { return i.node.Watch() }

// Store returns the instance's SDL.
func (i *Instance) Store() *sdl.Store { return i.node.SDL }

// Bus returns the instance's bus client (nil when standalone).
func (i *Instance) Bus() *Client { return i.bus }

// Records returns how many telemetry records this instance has scored.
// The counter is readable after Stop, so zero-loss accounting can still
// include retired instances.
func (i *Instance) Records() uint64 {
	return i.node.WatchStats().RecordsSeen.Load()
}

// RingEpoch returns the last ring epoch this instance applied (0 before
// the first).
func (i *Instance) RingEpoch() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.ring == nil {
		return 0
	}
	return i.ring.Epoch
}

// healthDetail is the /healthz readiness check: a federated instance is
// ready when it is running and its bus is reachable; degraded mode is
// reported, not hidden. The detail string carries per-subsystem state
// for the structured (JSON) health form.
func (i *Instance) healthDetail() (string, error) {
	i.mu.Lock()
	stopped := i.stopped
	epoch := 0
	if i.ring != nil {
		epoch = i.ring.Epoch
	}
	i.mu.Unlock()
	detail := fmt.Sprintf("bus=%s epoch=%d ues=%d shards=%d",
		map[bool]string{true: "connected", false: "disconnected"}[i.bus != nil && i.bus.Connected()],
		epoch, len(i.Runtime().UEs()), i.node.SDL.ShardCount())
	if stopped {
		return detail, fmt.Errorf("instance stopped")
	}
	if i.bus != nil && !i.bus.Connected() {
		return detail, fmt.Errorf("bus unreachable (degraded: standalone detection, no migration)")
	}
	return detail, nil
}

// onRing applies a published ring epoch and migrates out every UE this
// instance holds but no longer owns. Migrations run concurrently under
// the maxConcurrentMigrations semaphore.
func (i *Instance) onRing(_ uint64, payload []byte) {
	r, err := ParseRing(payload)
	if err != nil {
		obs.L().Warn("fed: bad ring payload", "instance", i.id, "err", err)
		return
	}
	i.mu.Lock()
	if i.stopped || (i.ring != nil && r.Epoch <= i.ring.Epoch) {
		i.mu.Unlock()
		return
	}
	i.ring = r
	i.mu.Unlock()
	obsRingEpoch.With(i.id).Set(float64(r.Epoch))
	obsOwnedFraction.With(i.id).Set(r.OwnedFraction(i.id))
	obs.L().Info("fed: ring applied", "instance", i.id, "epoch", r.Epoch,
		"instances", len(r.Instances), "owned", fmt.Sprintf("%.3f", r.OwnedFraction(i.id)))

	for _, ue := range i.Runtime().UEs() {
		owner := r.Owner(ue)
		if owner == "" || owner == i.id {
			continue
		}
		go func(ue uint64, owner string) {
			if err := i.MigrateUE(ue, owner); err != nil {
				obs.L().Warn("fed: rebalance migration failed, UE stays local",
					"instance", i.id, "ue", ue, "dest", owner, "err", err)
			}
		}(ue, owner)
	}
}

// onPolicy applies an A1 policy fanned out by the coordinator: detection
// thresholds and the mitigation engine's mode, deny list and TTL.
func (i *Instance) onPolicy(_ uint64, payload []byte) {
	p, err := smo.ParsePolicy(payload)
	if err != nil {
		obs.L().Warn("fed: bad policy payload", "instance", i.id, "err", err)
		return
	}
	i.node.ApplyPolicy(p)
	obs.L().Info("fed: policy applied", "instance", i.id, "policy", p.ID)
}

// MigrateUE checkpoints ue, records the provenance hand-off, ships the
// snapshot to dest, and forgets the UE once dest acknowledges the
// restore. Until the ack arrives the UE keeps scoring locally, so a
// failed or timed-out migration degrades to the pre-migration state
// instead of losing the UE.
func (i *Instance) MigrateUE(ue uint64, dest string) error {
	if dest == i.id {
		return nil
	}
	if i.bus == nil {
		return fmt.Errorf("fed: instance %s is standalone, cannot migrate", i.id)
	}
	i.migSem <- struct{}{}
	defer func() { <-i.migSem }()
	obsMigrationsInflight.Add(1)
	defer obsMigrationsInflight.Add(-1)

	cpStart := time.Now()
	snap, err := i.Runtime().CheckpointUE(ue)
	if err != nil {
		return fmt.Errorf("fed: checkpoint UE %d: %w", ue, err)
	}
	// The migration's trace context: the chain key of the UE's last
	// scored indication here. Every hop of the hand-off records spans on
	// it, and the destination keeps using it for the restore span.
	trace := prov.ChainID{Node: snap.Node, SN: snap.LastSN}.String()
	obs.RecordSpan(trace, "fed.checkpoint", cpStart, time.Now())
	start := time.Now()
	m := &outMigration{start: start, done: make(chan struct{})}
	i.mu.Lock()
	if _, dup := i.inflight[ue]; dup {
		i.mu.Unlock()
		return fmt.Errorf("fed: UE %d migration already in flight", ue)
	}
	epoch := 0
	if i.ring != nil {
		epoch = i.ring.Epoch
	}
	i.inflight[ue] = m
	i.mu.Unlock()

	// The hand-off is recorded on the chain of the UE's last scored
	// indication before the snapshot leaves this instance, so the
	// evidence trail cannot end without naming where the state went.
	prov.Record(prov.Event{
		Chain:    prov.ChainID{Node: snap.Node, SN: snap.LastSN},
		Kind:     prov.KindMigration,
		At:       start,
		Label:    "out",
		UEID:     ue,
		Target:   dest,
		SeqFirst: snap.Records.FirstSeq(),
		SeqLast:  snap.Records.LastSeq(),
	})

	msg := migrateMsg{
		Epoch: uint64(epoch), Source: i.id, Dest: dest, UE: ue,
		Snapshot: mobiwatch.EncodeSnapshot(snap), Trace: trace,
	}
	if err := i.bus.PublishTraced(TopicMigrate, asn1lite.Marshal(&msg), trace); err != nil {
		i.clearInflight(ue)
		obsMigrations.With(i.id, "failed").Inc()
		return err
	}

	select {
	case <-m.done:
		if err := i.Runtime().ForgetUE(ue); err != nil {
			obs.L().Warn("fed: forget after ack", "instance", i.id, "ue", ue, "err", err)
		}
		obsMigrations.With(i.id, "out").Inc()
		obsMigrationSeconds.Observe(time.Since(start).Seconds())
		obs.RecordSpan(trace, "fed.migrate", start, time.Now())
		return nil
	case <-time.After(i.opts.MigrationTimeout):
		i.clearInflight(ue)
		obsMigrations.With(i.id, "failed").Inc()
		return fmt.Errorf("fed: UE %d migration to %s: no ack within %v (UE stays local)",
			ue, dest, i.opts.MigrationTimeout)
	}
}

func (i *Instance) clearInflight(ue uint64) {
	i.mu.Lock()
	delete(i.inflight, ue)
	i.mu.Unlock()
}

// onMigrate restores a snapshot addressed to this instance and claims
// the UE's ownership lease before acknowledging, so the restored window
// state is in place before the first post-migration indication scores.
func (i *Instance) onMigrate(_ uint64, payload []byte, _ string) {
	var msg migrateMsg
	if err := asn1lite.Unmarshal(payload, &msg); err != nil || msg.Dest != i.id {
		return
	}
	restoreStart := time.Now()
	snap, err := mobiwatch.DecodeSnapshot(msg.Snapshot)
	if err != nil {
		obs.L().Warn("fed: bad snapshot", "instance", i.id, "ue", msg.UE, "err", err)
		obsMigrations.With(i.id, "failed").Inc()
		return
	}
	if err := i.Runtime().RestoreUE(snap); err != nil {
		obs.L().Warn("fed: restore failed", "instance", i.id, "ue", msg.UE, "err", err)
		obsMigrations.With(i.id, "failed").Inc()
		return
	}
	i.node.SDL.SetOwnedTTL(OwnerNamespace, ownerKey(i.id, msg.UE),
		[]byte(i.id), ownerTTL)
	obsMigrations.With(i.id, "in").Inc()
	if msg.Trace != "" {
		obs.RecordSpan(msg.Trace, "fed.restore", restoreStart, time.Now())
	}
	ack := migrateAck{Source: msg.Source, Dest: i.id, UE: msg.UE, Trace: msg.Trace}
	if err := i.bus.PublishTraced(TopicMigrateAck, asn1lite.Marshal(&ack), msg.Trace); err != nil {
		obs.L().Warn("fed: ack publish failed", "instance", i.id, "ue", msg.UE, "err", err)
	}
}

// onAck completes an outbound migration this instance is waiting on.
// An ack that arrives after the waiter timed out is still adopted when
// the applied ring assigns the UE elsewhere: the destination has
// restored the state and holds the lease, so keeping a second live copy
// here until the next ring change is strictly worse than dropping the
// few records scored locally since the timeout (they are already
// counted as scored; zero-loss accounting is unaffected). The ring
// guard keeps a replayed ack — the bus redelivers on reconnect — from
// forgetting a UE that has since migrated back.
func (i *Instance) onAck(_ uint64, payload []byte, _ string) {
	var ack migrateAck
	if err := asn1lite.Unmarshal(payload, &ack); err != nil || ack.Source != i.id {
		return
	}
	i.mu.Lock()
	m := i.inflight[ack.UE]
	delete(i.inflight, ack.UE)
	ownsStill := i.ring == nil || i.ring.Owner(ack.UE) == i.id
	i.mu.Unlock()
	if m != nil {
		close(m.done)
		return
	}
	if ownsStill {
		return
	}
	if err := i.Runtime().ForgetUE(ack.UE); err == nil {
		obsMigrations.With(i.id, "out").Inc()
		obs.L().Info("fed: late migration ack adopted",
			"instance", i.id, "ue", ack.UE, "dest", ack.Dest)
	}
}

func ownerKey(instance string, ue uint64) string {
	return fmt.Sprintf("owner/%s/%d", instance, ue)
}

// UEs lists the UE contexts this instance currently holds.
func (i *Instance) UEs() []uint64 { return i.Runtime().UEs() }

// Stop retires the instance: bus first (no new migrations in), then the
// node (core.Node.Close). The final record count stays readable through
// Records.
func (i *Instance) Stop() {
	i.mu.Lock()
	if i.stopped {
		i.mu.Unlock()
		return
	}
	i.stopped = true
	i.mu.Unlock()
	close(i.hbStop)
	i.hbWG.Wait()
	obs.UnregisterHealth("fed/" + i.id)
	if i.bus != nil {
		i.bus.Close()
	}
	i.node.Close()
}

// heartbeatLoop publishes fleet liveness beacons until Stop. A beacon
// that fails to publish (bus degraded) is simply skipped — the missing
// heartbeats are exactly the signal the collector's failure detector
// consumes.
func (i *Instance) heartbeatLoop(period time.Duration) {
	defer i.hbWG.Done()
	t := time.NewTicker(period)
	defer t.Stop()
	var seq uint64
	for {
		select {
		case <-i.hbStop:
			return
		case <-t.C:
			seq++
			hb := fleet.Heartbeat{
				Instance:  i.id,
				Node:      i.node.GNB.NodeID(),
				Seq:       seq,
				UnixNanos: time.Now().UnixNano(),
				Epoch:     i.RingEpoch(),
				UEs:       len(i.Runtime().UEs()),
				Records:   i.Records(),
			}
			if payload, err := hb.Encode(); err == nil {
				i.bus.Publish(fleet.TopicHeartbeat, payload)
			}
		}
	}
}

// onScrape answers a fleet snapshot pull with this instance's metric
// snapshot and retained trace spans.
func (i *Instance) onScrape(_ uint64, payload []byte) {
	req, err := fleet.ParseScrapeRequest(payload)
	if err != nil {
		return
	}
	rep := fleet.Report{
		Instance:  i.id,
		Node:      i.node.GNB.NodeID(),
		Seq:       req.Seq,
		UnixNanos: time.Now().UnixNano(),
		Series:    i.ObsSnapshot(),
		Spans:     i.fleetSpans(),
	}
	data, err := rep.Encode()
	if err != nil {
		return
	}
	if err := i.bus.Publish(fleet.TopicReport, data); err != nil {
		obs.L().Warn("fed: scrape report publish failed", "instance", i.id, "err", err)
	}
}

// ObsSnapshot builds this instance's per-instance metric snapshot for
// the fleet plane. Colocated instances share the process-global Default
// registry, so the snapshot is assembled from instance-owned sources:
// the runtime's counters, ring state, the instance-labeled migration
// counters, and the private score-latency histogram.
func (i *Instance) ObsSnapshot() []obs.SeriesSnapshot {
	st := i.Runtime().Stats()
	node := i.node.GNB.NodeID()
	nodeLbl := func() map[string]string { return map[string]string{"node": node} }
	out := []obs.SeriesSnapshot{
		{Name: "xsec_mobiwatch_records_total", Kind: "counter", Labels: nodeLbl(),
			Value: float64(st.RecordsSeen.Load())},
		{Name: "xsec_mobiwatch_windows_scored_total", Kind: "counter", Labels: nodeLbl(),
			Value: float64(st.WindowsScored.Load())},
		{Name: "xsec_mobiwatch_alerts_total", Kind: "counter",
			Labels: map[string]string{"node": node, "outcome": "raised"},
			Value:  float64(st.AlertsRaised.Load())},
		{Name: "xsec_mobiwatch_alerts_total", Kind: "counter",
			Labels: map[string]string{"node": node, "outcome": "dropped"},
			Value:  float64(st.AlertsDropped.Load())},
		{Name: "xsec_fed_ues", Kind: "gauge", Value: float64(len(i.Runtime().UEs()))},
		{Name: "xsec_fed_ring_epoch", Kind: "gauge", Value: float64(i.RingEpoch())},
	}
	for _, dir := range []string{"out", "in", "failed"} {
		out = append(out, obs.SeriesSnapshot{
			Name: "xsec_fed_migrations_total", Kind: "counter",
			Labels: map[string]string{"direction": dir},
			Value:  float64(obsMigrations.With(i.id, dir).Value()),
		})
	}
	out = append(out, i.scoreReg.Snapshot()...)
	return out
}

// fleetSpans returns this instance's retained pipeline spans: the
// process tracer filtered to keys minted by this instance's node (all
// chain keys are "node/sn", and restore spans adopt the source chain's
// key, so span attribution follows the trace context, not the
// process).
func (i *Instance) fleetSpans() []obs.Span {
	prefix := i.node.GNB.NodeID() + "/"
	var out []obs.Span
	for _, sp := range obs.DefaultTracer.Spans() {
		if len(sp.Key) > len(prefix) && sp.Key[:len(prefix)] == prefix {
			out = append(out, sp)
		}
	}
	return out
}
