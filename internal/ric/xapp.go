package ric

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"github.com/6g-xsec/xsec/internal/e2ap"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// XApp is a control-plane application registered with the platform. It
// provides the subscription, control, and SDL primitives the paper's
// xApps (MobiWatch, LLM Analyzer) are built on.
type XApp struct {
	name      string
	requestor uint32
	platform  *Platform

	mu       sync.Mutex
	instance uint32
}

// RegisterXApp registers an xApp by name and returns its handle. Names
// must be unique.
func (p *Platform) RegisterXApp(name string) (*XApp, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrClosed
	}
	if _, dup := p.xapps[name]; dup {
		return nil, fmt.Errorf("ric: xApp %q already registered", name)
	}
	p.nextReq++
	x := &XApp{name: name, requestor: p.nextReq, platform: p}
	p.xapps[name] = x
	return x, nil
}

// Name returns the xApp name.
func (x *XApp) Name() string { return x.name }

// SDL returns the shared data layer.
func (x *XApp) SDL() *sdl.Store { return x.platform.store }

// ShardFunc extracts the partition key from an indication; indications
// with equal keys are delivered to the same shard queue in arrival
// order. The E2SM layer supplies it (e.g. e2sm.PeekIndicationUE over the
// indication header) — the platform itself stays service-model agnostic.
type ShardFunc func(Indication) uint64

// SubscribeOptions configures Subscribe.
type SubscribeOptions struct {
	// Shards is the number of bounded dispatch queues (default 1).
	Shards int
	// Buffer is each shard queue's capacity (default 64). A full queue
	// drops, counted per shard.
	Buffer int
	// Key partitions indications across queues. Required when Shards > 1.
	Key ShardFunc
}

// Subscription is an active RIC subscription. Its indication stream is
// partitioned into bounded per-shard queues by a caller-provided key
// (typically the UE ID from the indication header). Indications with the
// same key stay strictly ordered on one queue; different keys land on
// different queues so downstream workers — one per shard — process them
// in parallel. Backpressure is explicit: a full shard queue drops that
// indication and increments its own counter, without stalling the E2
// Termination or the other shards. Indications arrive until Delete is
// called or the node disconnects, after which every shard stream is
// closed.
type Subscription struct {
	ID     e2ap.RequestID
	nodeID string
	fnID   uint16
	xapp   *XApp

	key    ShardFunc
	shards []shardQueue

	// Interned per-xApp routing counters; resolved once at Subscribe
	// so the delivery hot path performs no label lookup.
	obsRouted  *obs.Counter
	obsDropped *obs.Counter
}

type shardQueue struct {
	// mu serializes deliveries against channel close: the router may be
	// mid-send on another goroutine when Delete or a node detach closes
	// the stream. Sends are non-blocking, so the lock is never held
	// across a wait.
	mu      sync.Mutex
	closed  bool
	ch      chan Indication
	routed  *obs.Counter
	dropped *obs.Counter
}

// Shards reports the queue count.
func (s *Subscription) Shards() int { return len(s.shards) }

// C returns shard i's indication stream.
func (s *Subscription) C(i int) <-chan Indication { return s.shards[i].ch }

// deliver routes one indication to its shard, non-blocking; false means
// the queue was full or closed (the caller counts the xApp-level drop).
func (s *Subscription) deliver(ind Indication) bool {
	q := &s.shards[0]
	if len(s.shards) > 1 {
		q = &s.shards[s.key(ind)%uint64(len(s.shards))]
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	select {
	case q.ch <- ind:
		q.routed.Inc()
		return true
	default:
		q.dropped.Inc()
		return false
	}
}

// closeCh closes every shard stream exactly once, excluding any
// in-flight deliver.
func (s *Subscription) closeCh() {
	for i := range s.shards {
		q := &s.shards[i]
		q.mu.Lock()
		if !q.closed {
			q.closed = true
			close(q.ch)
		}
		q.mu.Unlock()
	}
}

// NodeID reports which E2 node the subscription is bound to.
func (s *Subscription) NodeID() string { return s.nodeID }

func (x *XApp) nextRequestID() e2ap.RequestID {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.instance++
	return e2ap.RequestID{Requestor: x.requestor, Instance: x.instance}
}

// request performs one request/response E2 procedure against a node
// under the platform's default timeout.
func (p *Platform) request(nodeID string, msg *e2ap.Message) (*e2ap.Message, error) {
	return p.requestCtx(context.Background(), nodeID, msg)
}

// requestCtx performs one request/response E2 procedure against a node.
// The procedure is abandoned — its pending slot cleared, a late response
// dropped — when ctx is done or the platform timeout elapses, whichever
// comes first; a hung node therefore cannot wedge the caller.
func (p *Platform) requestCtx(ctx context.Context, nodeID string, msg *e2ap.Message) (*e2ap.Message, error) {
	p.mu.Lock()
	node := p.nodes[nodeID]
	if node == nil || !node.ready {
		p.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNoSuchNode, nodeID)
	}
	ch := make(chan *e2ap.Message, 1)
	p.pending[msg.RequestID] = ch
	p.mu.Unlock()

	abandon := func() {
		p.mu.Lock()
		delete(p.pending, msg.RequestID)
		p.mu.Unlock()
	}
	if err := node.ep.Send(msg); err != nil {
		abandon()
		return nil, fmt.Errorf("ric: sending %s to %s: %w", msg.Type, nodeID, err)
	}
	timer := time.NewTimer(p.timeout)
	defer timer.Stop()
	select {
	case resp := <-ch:
		return resp, nil
	case <-ctx.Done():
		abandon()
		return nil, fmt.Errorf("%s to %s: %w (%w)", msg.Type, nodeID, ErrTimeout, ctx.Err())
	case <-timer.C:
		abandon()
		return nil, fmt.Errorf("%s to %s: %w", msg.Type, nodeID, ErrTimeout)
	}
}

// Subscribe establishes a RIC subscription on nodeID's RAN function,
// delivering into opts.Shards bounded queues. A full queue drops (counted
// in Metrics and per shard), matching the RMR behavior of the OSC
// platform. The subscription is registered before the request is sent
// (so indications racing the response are kept) and the registration is
// rolled back on failure.
func (x *XApp) Subscribe(nodeID string, ranFunctionID uint16, eventTrigger []byte, actions []e2ap.Action, opts SubscribeOptions) (*Subscription, error) {
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	if opts.Buffer <= 0 {
		opts.Buffer = 64
	}
	if opts.Key == nil && opts.Shards > 1 {
		return nil, fmt.Errorf("ric: Subscribe with %d shards requires SubscribeOptions.Key", opts.Shards)
	}
	reqID := x.nextRequestID()
	sub := &Subscription{
		ID:         reqID,
		nodeID:     nodeID,
		fnID:       ranFunctionID,
		xapp:       x,
		key:        opts.Key,
		shards:     make([]shardQueue, opts.Shards),
		obsRouted:  obsIndications.With(x.name, "routed"),
		obsDropped: obsIndications.With(x.name, "dropped"),
	}
	for i := range sub.shards {
		lbl := strconv.Itoa(i)
		sub.shards[i].ch = make(chan Indication, opts.Buffer)
		sub.shards[i].routed = obsShardIndications.With(x.name, lbl, "routed")
		sub.shards[i].dropped = obsShardIndications.With(x.name, lbl, "dropped")
	}
	x.platform.mu.Lock()
	x.platform.subs[reqID] = sub
	x.platform.mu.Unlock()

	resp, err := x.platform.request(nodeID, &e2ap.Message{
		Type:          e2ap.TypeSubscriptionRequest,
		RequestID:     reqID,
		RANFunctionID: ranFunctionID,
		EventTrigger:  eventTrigger,
		Actions:       actions,
	})
	if err != nil || resp.Type != e2ap.TypeSubscriptionResponse {
		x.platform.mu.Lock()
		delete(x.platform.subs, reqID)
		x.platform.mu.Unlock()
		x.platform.metrics.SubscriptionsFail.Add(1)
		obsProcedures.With("subscribe", "fail").Inc()
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %s", ErrSubscriptionFailed, resp.Cause)
	}
	x.platform.metrics.SubscriptionsOK.Add(1)
	obsProcedures.With("subscribe", "ok").Inc()
	obs.L().Info("ric: subscription established",
		"xapp", x.name, "node", nodeID, "function", ranFunctionID, "buffer", opts.Shards*opts.Buffer)
	return sub, nil
}

// Delete tears the subscription down on the node and closes every shard
// stream.
func (s *Subscription) Delete() error {
	p := s.xapp.platform
	p.mu.Lock()
	delete(p.subs, s.ID)
	p.mu.Unlock()
	s.closeCh()

	resp, err := p.request(s.nodeID, &e2ap.Message{
		Type:          e2ap.TypeSubscriptionDeleteRequest,
		RequestID:     s.ID,
		RANFunctionID: s.fnID,
	})
	if err != nil {
		return err
	}
	if resp.Type != e2ap.TypeSubscriptionDeleteResponse {
		return fmt.Errorf("%w: %s", ErrSubscriptionFailed, resp.Cause)
	}
	return nil
}

// Control sends a RIC Control request (the closed-loop feedback primitive
// of Figure 3) and waits for the acknowledgment under the platform's
// default procedure timeout.
func (x *XApp) Control(nodeID string, ranFunctionID uint16, header, message []byte) error {
	return x.ControlContext(context.Background(), nodeID, ranFunctionID, header, message)
}

// ControlContext is Control with caller-supplied cancellation: the
// request is abandoned when ctx is done (its deadline acts as a
// per-request timeout tighter than the platform default), so a hung gNB
// cannot wedge an issuing control loop. Timeouts and cancellations are
// counted as control failures.
func (x *XApp) ControlContext(ctx context.Context, nodeID string, ranFunctionID uint16, header, message []byte) error {
	reqID := x.nextRequestID()
	resp, err := x.platform.requestCtx(ctx, nodeID, &e2ap.Message{
		Type:           e2ap.TypeControlRequest,
		RequestID:      reqID,
		RANFunctionID:  ranFunctionID,
		ControlHeader:  header,
		ControlMessage: message,
	})
	if err != nil {
		x.platform.metrics.ControlsFail.Add(1)
		obsProcedures.With("control", "fail").Inc()
		return err
	}
	if resp.Type != e2ap.TypeControlAck {
		x.platform.metrics.ControlsFail.Add(1)
		obsProcedures.With("control", "fail").Inc()
		return fmt.Errorf("%w: %s", ErrControlFailed, resp.Cause)
	}
	x.platform.metrics.ControlsOK.Add(1)
	obsProcedures.With("control", "ok").Inc()
	return nil
}
