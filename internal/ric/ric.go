// Package ric implements the near-real-time RAN Intelligent Controller
// platform of the 6G-XSec framework (§2.1, §3 of the paper): the E2
// Termination that gNBs connect to, the subscription manager that pairs
// xApp requests with E2 nodes, the message routing that dispatches RIC
// Indications to subscribed xApps (the OSC RMR analog), the Shared Data
// Layer handle, and the xApp registration API used by MobiWatch and the
// LLM Analyzer.
//
// The platform accepts E2 connections in-process (e2ap.Pipe), so
// integration tests and the testbed binary use identical code paths.
package ric

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/6g-xsec/xsec/internal/e2ap"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// Platform-level observability. Indication routing is labeled per xApp
// so backpressure loss is attributable: the per-subscription handles
// are interned at Subscribe time and the delivery path pays one atomic
// add per indication.
var (
	obsIndications = obs.NewCounterVec("xsec_ric_indications_total",
		"RIC indications routed toward xApp subscriptions, by xApp and outcome.", "xapp", "outcome")
	obsUnmatched = obsIndications.With("_none", "unmatched")
	obsNodes     = obs.NewGauge("xsec_ric_e2_nodes",
		"Currently connected E2 nodes.")
	obsProcedures = obs.NewCounterVec("xsec_ric_procedures_total",
		"E2 procedures initiated by the platform, by procedure and outcome.", "procedure", "outcome")
)

// Errors returned by platform operations.
var (
	ErrNoSuchNode         = errors.New("ric: no such E2 node")
	ErrSubscriptionFailed = errors.New("ric: subscription rejected by E2 node")
	ErrControlFailed      = errors.New("ric: control rejected by E2 node")
	ErrTimeout            = errors.New("ric: E2 procedure timed out")
	ErrClosed             = errors.New("ric: platform closed")
)

// DefaultProcedureTimeout bounds subscription and control round trips.
// The near-RT control loop must complete within 10 ms – 1 s (§2.1), so a
// second is the hard ceiling.
const DefaultProcedureTimeout = time.Second

// Indication is a routed RIC Indication delivered to an xApp handler.
type Indication struct {
	NodeID    string
	RequestID e2ap.RequestID
	ActionID  uint16
	SN        uint64
	// Header and Message are views of the E2 frame the indication
	// arrived in: a subscriber that keeps either past its handling keeps
	// the whole frame, so it copies what it keeps.
	Header  []byte
	Message []byte
	// ReceivedAt is stamped by the E2 Termination on arrival, enabling
	// control-loop latency accounting.
	ReceivedAt time.Time
	// Key is obs.IndicationKey(NodeID, SN), minted once on arrival: every
	// span of the indication's journey is recorded under it.
	Key string
}

// NodeInfo describes a connected E2 node.
type NodeInfo struct {
	NodeID       string
	RANFunctions []e2ap.RANFunction
	ConnectedAt  time.Time
}

// Metrics exposes platform counters.
type Metrics struct {
	IndicationsRouted  atomic.Uint64
	IndicationsDropped atomic.Uint64
	SubscriptionsOK    atomic.Uint64
	SubscriptionsFail  atomic.Uint64
	ControlsOK         atomic.Uint64
	ControlsFail       atomic.Uint64
}

// Platform is the near-RT RIC.
type Platform struct {
	store *sdl.Store

	mu      sync.Mutex
	nodes   map[string]*nodeConn
	subs    map[e2ap.RequestID]*Subscription
	pending map[e2ap.RequestID]chan *e2ap.Message
	xapps   map[string]*XApp
	nextReq uint32
	closed  bool

	metrics Metrics
}

type nodeConn struct {
	info NodeInfo
	ep   *e2ap.Endpoint
	// ready is set (under Platform.mu) once the E2SetupResponse has been
	// written. Until then the entry only reserves the node ID: Nodes and
	// request do not see it, so no procedure can overtake the response on
	// the connection.
	ready bool
}

// NewPlatform creates a RIC platform around an SDL store (pass sdl.New()
// unless sharing a store across services).
func NewPlatform(store *sdl.Store) *Platform {
	return &Platform{
		store:   store,
		nodes:   make(map[string]*nodeConn),
		subs:    make(map[e2ap.RequestID]*Subscription),
		pending: make(map[e2ap.RequestID]chan *e2ap.Message),
		xapps:   make(map[string]*XApp),
	}
}

// Metrics returns the live counter set.
func (p *Platform) Metrics() *Metrics { return &p.metrics }

// Nodes lists connected E2 nodes sorted by ID.
func (p *Platform) Nodes() []NodeInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]NodeInfo, 0, len(p.nodes))
	for _, n := range p.nodes {
		if n.ready {
			out = append(out, n.info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].NodeID < out[j].NodeID })
	return out
}

// AttachNode runs the E2 Termination for one node connection: it performs
// the E2 Setup handshake, then routes messages until the peer disconnects.
// It blocks; run it in a goroutine for loopback deployments.
func (p *Platform) AttachNode(ep *e2ap.Endpoint) error {
	first, err := ep.Recv()
	if err != nil {
		ep.Close()
		return fmt.Errorf("ric: awaiting E2 setup: %w", err)
	}
	if first.Type != e2ap.TypeE2SetupRequest || first.NodeID == "" {
		ep.Send(&e2ap.Message{Type: e2ap.TypeE2SetupFailure, Cause: "expected E2SetupRequest with node ID"})
		ep.Close()
		return fmt.Errorf("ric: first message %s: %w", first.Type, e2ap.ErrBadMessage)
	}

	node := &nodeConn{
		info: NodeInfo{NodeID: first.NodeID, RANFunctions: first.RANFunctions, ConnectedAt: time.Now()},
		ep:   ep,
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		ep.Close()
		return ErrClosed
	}
	if _, dup := p.nodes[first.NodeID]; dup {
		p.mu.Unlock()
		ep.Send(&e2ap.Message{Type: e2ap.TypeE2SetupFailure, Cause: "duplicate node ID"})
		ep.Close()
		return fmt.Errorf("ric: node %q already connected", first.NodeID)
	}
	p.nodes[first.NodeID] = node
	p.mu.Unlock()

	if err := ep.Send(&e2ap.Message{Type: e2ap.TypeE2SetupResponse, NodeID: "ric-0", TransactionID: first.TransactionID}); err != nil {
		p.detachNode(first.NodeID)
		return fmt.Errorf("ric: E2 setup response: %w", err)
	}
	p.mu.Lock()
	node.ready = true
	obsNodes.Set(float64(len(p.nodes)))
	p.mu.Unlock()
	obs.L().Info("ric: E2 node attached", "node", first.NodeID, "functions", len(first.RANFunctions))

	for {
		msg, err := ep.Recv()
		if err != nil {
			p.detachNode(first.NodeID)
			return err
		}
		p.route(node, msg)
	}
}

func (p *Platform) detachNode(nodeID string) {
	p.mu.Lock()
	node, ok := p.nodes[nodeID]
	if ok {
		delete(p.nodes, nodeID)
		obsNodes.Set(float64(len(p.nodes)))
	}
	// Tear down subscriptions bound to this node.
	var gone []*Subscription
	for id, sub := range p.subs {
		if sub.nodeID == nodeID {
			gone = append(gone, sub)
			delete(p.subs, id)
		}
	}
	p.mu.Unlock()
	if ok {
		node.ep.Close()
	}
	for _, sub := range gone {
		sub.closeCh()
	}
}

// route dispatches one node→RIC message.
func (p *Platform) route(node *nodeConn, msg *e2ap.Message) {
	switch msg.Type {
	case e2ap.TypeIndication:
		p.mu.Lock()
		sub := p.subs[msg.RequestID]
		p.mu.Unlock()
		if sub == nil {
			p.metrics.IndicationsDropped.Add(1)
			obsUnmatched.Inc()
			prov.Record(prov.Event{
				Chain: prov.ChainID{Node: node.info.NodeID, SN: msg.IndicationSN},
				Kind:  prov.KindIndication,
				At:    time.Now(),
				Label: "unmatched",
			})
			obs.L().Debug("ric: indication without subscription dropped",
				"node", node.info.NodeID, "request", msg.RequestID)
			return
		}
		ind := Indication{
			NodeID:     node.info.NodeID,
			RequestID:  msg.RequestID,
			ActionID:   msg.ActionID,
			SN:         msg.IndicationSN,
			Header:     msg.IndicationHeader,
			Message:    msg.IndicationMessage,
			ReceivedAt: time.Now(),
			Key:        obs.IndicationKey(node.info.NodeID, msg.IndicationSN),
		}
		routeLabel := "routed"
		if sub.deliver(ind) {
			p.metrics.IndicationsRouted.Add(1)
			sub.obsRouted.Inc()
		} else {
			routeLabel = "dropped"
			// The xApp's buffer is full: the loss is counted per xApp
			// and logged so backpressure is visible, not silent.
			p.metrics.IndicationsDropped.Add(1)
			sub.obsDropped.Inc()
			obs.L().Warn("ric: xApp subscription buffer full, indication dropped",
				"xapp", sub.xapp.name, "node", node.info.NodeID, "sn", msg.IndicationSN)
		}
		obs.RecordSpan(ind.Key, "ric.route", ind.ReceivedAt, time.Now())
		prov.Record(prov.Event{
			Chain: prov.ChainID{Node: node.info.NodeID, SN: msg.IndicationSN},
			Kind:  prov.KindIndication,
			At:    ind.ReceivedAt,
			Label: routeLabel,
		})
	case e2ap.TypeSubscriptionResponse, e2ap.TypeSubscriptionFailure,
		e2ap.TypeSubscriptionDeleteResponse,
		e2ap.TypeControlAck, e2ap.TypeControlFailure:
		p.mu.Lock()
		ch := p.pending[msg.RequestID]
		delete(p.pending, msg.RequestID)
		p.mu.Unlock()
		if ch != nil {
			ch <- msg
		}
	case e2ap.TypeErrorIndication:
		// Logged by counters only; a production RIC would alarm here.
		p.metrics.ControlsFail.Add(1)
	}
}

// Close shuts the platform down, closing node connections and
// subscription channels.
func (p *Platform) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	nodes := make([]string, 0, len(p.nodes))
	for id := range p.nodes {
		nodes = append(nodes, id)
	}
	p.mu.Unlock()
	for _, id := range nodes {
		p.detachNode(id)
	}
}
