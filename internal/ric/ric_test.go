package ric

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/e2ap"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// fakeNode is a minimal E2 agent: it performs setup, admits all
// subscriptions, acks all controls, and exposes a method to emit
// indications toward the RIC.
type fakeNode struct {
	id     string
	ep     *e2ap.Endpoint
	subs   chan e2ap.RequestID
	reject bool
	done   chan struct{}
}

func startFakeNode(t *testing.T, p *Platform, id string, reject bool) *fakeNode {
	t.Helper()
	ricEnd, nodeEnd := e2ap.Pipe()
	n := &fakeNode{id: id, ep: nodeEnd, subs: make(chan e2ap.RequestID, 16), reject: reject, done: make(chan struct{})}
	go p.AttachNode(ricEnd)

	if err := nodeEnd.Send(&e2ap.Message{Type: e2ap.TypeE2SetupRequest, NodeID: id,
		RANFunctions: []e2ap.RANFunction{{ID: 2, OID: "oid"}}}); err != nil {
		t.Fatalf("setup send: %v", err)
	}
	resp, err := nodeEnd.Recv()
	if err != nil || resp.Type != e2ap.TypeE2SetupResponse {
		t.Fatalf("setup response: %+v err=%v", resp, err)
	}
	go n.serve()
	return n
}

func (n *fakeNode) serve() {
	defer close(n.done)
	for {
		msg, err := n.ep.Recv()
		if err != nil {
			return
		}
		switch msg.Type {
		case e2ap.TypeSubscriptionRequest:
			if n.reject {
				n.ep.Send(&e2ap.Message{Type: e2ap.TypeSubscriptionFailure, RequestID: msg.RequestID, Cause: "rejected by test"})
				continue
			}
			n.ep.Send(&e2ap.Message{Type: e2ap.TypeSubscriptionResponse, RequestID: msg.RequestID})
			n.subs <- msg.RequestID
		case e2ap.TypeSubscriptionDeleteRequest:
			n.ep.Send(&e2ap.Message{Type: e2ap.TypeSubscriptionDeleteResponse, RequestID: msg.RequestID})
		case e2ap.TypeControlRequest:
			if string(msg.ControlMessage) == "fail" {
				n.ep.Send(&e2ap.Message{Type: e2ap.TypeControlFailure, RequestID: msg.RequestID, Cause: "cannot"})
			} else {
				n.ep.Send(&e2ap.Message{Type: e2ap.TypeControlAck, RequestID: msg.RequestID})
			}
		}
	}
}

func (n *fakeNode) indicate(req e2ap.RequestID, sn uint64, payload []byte) error {
	return n.ep.Send(&e2ap.Message{
		Type: e2ap.TypeIndication, RequestID: req, IndicationSN: sn,
		IndicationHeader: []byte("h"), IndicationMessage: payload,
	})
}

func TestE2SetupAndNodeListing(t *testing.T) {
	p := NewPlatform(sdl.New())
	defer p.Close()
	startFakeNode(t, p, "gnb-1", false)
	startFakeNode(t, p, "gnb-2", false)

	waitFor(t, func() bool { return len(p.Nodes()) == 2 })
	nodes := p.Nodes()
	if nodes[0].NodeID != "gnb-1" || nodes[1].NodeID != "gnb-2" {
		t.Errorf("nodes = %+v", nodes)
	}
	if len(nodes[0].RANFunctions) != 1 || nodes[0].RANFunctions[0].ID != 2 {
		t.Errorf("RAN functions = %+v", nodes[0].RANFunctions)
	}
}

func TestDuplicateNodeRejected(t *testing.T) {
	p := NewPlatform(sdl.New())
	defer p.Close()
	startFakeNode(t, p, "gnb-1", false)
	waitFor(t, func() bool { return len(p.Nodes()) == 1 })

	ricEnd, nodeEnd := e2ap.Pipe()
	go p.AttachNode(ricEnd)
	nodeEnd.Send(&e2ap.Message{Type: e2ap.TypeE2SetupRequest, NodeID: "gnb-1"})
	resp, err := nodeEnd.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != e2ap.TypeE2SetupFailure {
		t.Errorf("got %s, want E2SetupFailure", resp.Type)
	}
}

// TestSubscribeCannotOvertakeSetupResponse pins the E2 set-up ordering:
// a caller that subscribes the instant Nodes() lists the node must not
// get its SubscriptionRequest onto the connection ahead of the
// E2SetupResponse (a gNB agent reads that as a refused set-up and exits).
// The window is a few instructions wide, so the handshake is repeated.
func TestSubscribeCannotOvertakeSetupResponse(t *testing.T) {
	for i := 0; i < 300; i++ {
		p := NewPlatform(sdl.New())
		x, err := p.RegisterXApp("eager")
		if err != nil {
			t.Fatal(err)
		}
		ricEnd, nodeEnd := e2ap.Pipe()
		go p.AttachNode(ricEnd)
		subErr := make(chan error, 1)
		go func() {
			for len(p.Nodes()) == 0 {
				runtime.Gosched()
			}
			_, err := x.Subscribe("gnb-eager", 2, nil, nil, 64)
			subErr <- err
		}()

		if err := nodeEnd.Send(&e2ap.Message{Type: e2ap.TypeE2SetupRequest, NodeID: "gnb-eager"}); err != nil {
			t.Fatal(err)
		}
		first, err := nodeEnd.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if first.Type != e2ap.TypeE2SetupResponse {
			t.Fatalf("handshake %d: node read %s before E2SetupResponse", i, first.Type)
		}
		req, err := nodeEnd.Recv()
		if err != nil || req.Type != e2ap.TypeSubscriptionRequest {
			t.Fatalf("handshake %d: after set-up node read %+v, err %v", i, req, err)
		}
		if err := nodeEnd.Send(&e2ap.Message{Type: e2ap.TypeSubscriptionResponse, RequestID: req.RequestID}); err != nil {
			t.Fatal(err)
		}
		if err := <-subErr; err != nil {
			t.Fatalf("handshake %d: Subscribe: %v", i, err)
		}
		p.Close()
	}
}

func TestBadFirstMessageRejected(t *testing.T) {
	p := NewPlatform(sdl.New())
	defer p.Close()
	ricEnd, nodeEnd := e2ap.Pipe()
	errc := make(chan error, 1)
	go func() { errc <- p.AttachNode(ricEnd) }()
	nodeEnd.Send(&e2ap.Message{Type: e2ap.TypeErrorIndication})
	resp, err := nodeEnd.Recv()
	if err != nil || resp.Type != e2ap.TypeE2SetupFailure {
		t.Errorf("resp=%+v err=%v", resp, err)
	}
	if err := <-errc; err == nil {
		t.Error("AttachNode returned nil for bad handshake")
	}
}

func TestSubscribeAndIndications(t *testing.T) {
	p := NewPlatform(sdl.New())
	defer p.Close()
	node := startFakeNode(t, p, "gnb-1", false)
	waitFor(t, func() bool { return len(p.Nodes()) == 1 })

	x, err := p.RegisterXApp("mobiwatch")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := x.Subscribe("gnb-1", 2, []byte("trigger"), []e2ap.Action{{ID: 1, Type: e2ap.ActionReport}}, 16)
	if err != nil {
		t.Fatal(err)
	}
	for sn := uint64(1); sn <= 3; sn++ {
		if err := node.indicate(sub.ID, sn, []byte(fmt.Sprintf("payload-%d", sn))); err != nil {
			t.Fatal(err)
		}
	}
	for sn := uint64(1); sn <= 3; sn++ {
		select {
		case ind := <-sub.C():
			if ind.SN != sn || string(ind.Message) != fmt.Sprintf("payload-%d", sn) {
				t.Errorf("indication %d = %+v", sn, ind)
			}
			if ind.NodeID != "gnb-1" || ind.ReceivedAt.IsZero() {
				t.Errorf("indication metadata = %+v", ind)
			}
		case <-time.After(time.Second):
			t.Fatal("indication timeout")
		}
	}
	if got := p.Metrics().IndicationsRouted.Load(); got != 3 {
		t.Errorf("IndicationsRouted = %d", got)
	}
}

func TestSubscriptionRejected(t *testing.T) {
	p := NewPlatform(sdl.New())
	defer p.Close()
	startFakeNode(t, p, "gnb-1", true)
	waitFor(t, func() bool { return len(p.Nodes()) == 1 })

	x, _ := p.RegisterXApp("x")
	if _, err := x.Subscribe("gnb-1", 2, nil, nil, 1); !errors.Is(err, ErrSubscriptionFailed) {
		t.Errorf("err = %v, want ErrSubscriptionFailed", err)
	}
	if got := p.Metrics().SubscriptionsFail.Load(); got != 1 {
		t.Errorf("SubscriptionsFail = %d", got)
	}
}

func TestSubscribeUnknownNode(t *testing.T) {
	p := NewPlatform(sdl.New())
	defer p.Close()
	x, _ := p.RegisterXApp("x")
	if _, err := x.Subscribe("nowhere", 2, nil, nil, 1); !errors.Is(err, ErrNoSuchNode) {
		t.Errorf("err = %v, want ErrNoSuchNode", err)
	}
}

func TestSubscriptionDelete(t *testing.T) {
	p := NewPlatform(sdl.New())
	defer p.Close()
	node := startFakeNode(t, p, "gnb-1", false)
	waitFor(t, func() bool { return len(p.Nodes()) == 1 })

	x, _ := p.RegisterXApp("x")
	sub, err := x.Subscribe("gnb-1", 2, nil, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Delete(); err != nil {
		t.Fatal(err)
	}
	// Channel closed.
	if _, open := <-sub.C(); open {
		t.Error("channel open after delete")
	}
	// Indications after delete are dropped, not delivered.
	node.indicate(sub.ID, 9, []byte("late"))
	waitFor(t, func() bool { return p.Metrics().IndicationsDropped.Load() == 1 })
}

func TestControlRoundTrip(t *testing.T) {
	p := NewPlatform(sdl.New())
	defer p.Close()
	startFakeNode(t, p, "gnb-1", false)
	waitFor(t, func() bool { return len(p.Nodes()) == 1 })

	x, _ := p.RegisterXApp("x")
	if err := x.ControlContext(context.Background(), "gnb-1", 3, []byte("hdr"), []byte("release")); err != nil {
		t.Fatal(err)
	}
	if err := x.ControlContext(context.Background(), "gnb-1", 3, nil, []byte("fail")); !errors.Is(err, ErrControlFailed) {
		t.Errorf("err = %v, want ErrControlFailed", err)
	}
	m := p.Metrics()
	if m.ControlsOK.Load() != 1 || m.ControlsFail.Load() != 1 {
		t.Errorf("controls ok=%d fail=%d", m.ControlsOK.Load(), m.ControlsFail.Load())
	}
}

func TestControlContextTimeout(t *testing.T) {
	p := NewPlatform(sdl.New())
	defer p.Close()

	// A node that completes setup but never acks controls: a hung gNB.
	ricEnd, nodeEnd := e2ap.Pipe()
	go p.AttachNode(ricEnd)
	nodeEnd.Send(&e2ap.Message{Type: e2ap.TypeE2SetupRequest, NodeID: "hung"})
	if _, err := nodeEnd.Recv(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(p.Nodes()) == 1 })
	go func() { // swallow the control request silently
		for {
			if _, err := nodeEnd.Recv(); err != nil {
				return
			}
		}
	}()

	x, _ := p.RegisterXApp("x")
	failsBefore := obsProcedures.With("control", "fail").Value()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := x.ControlContext(ctx, "hung", 3, nil, []byte("block"))
	if !errors.Is(err, ErrTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want ErrTimeout wrapping context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed >= DefaultProcedureTimeout {
		t.Errorf("control took %v; per-request deadline not honored", elapsed)
	}
	if got := p.Metrics().ControlsFail.Load(); got != 1 {
		t.Errorf("ControlsFail = %d", got)
	}
	if got := obsProcedures.With("control", "fail").Value() - failsBefore; got != 1 {
		t.Errorf("control/fail procedure metric delta = %d", got)
	}
	// The pending slot is reclaimed: a late ack no longer matches.
	p.mu.Lock()
	pending := len(p.pending)
	p.mu.Unlock()
	if pending != 0 {
		t.Errorf("pending requests after timeout = %d", pending)
	}
}

func TestNodeDisconnectClosesSubscriptions(t *testing.T) {
	p := NewPlatform(sdl.New())
	defer p.Close()
	node := startFakeNode(t, p, "gnb-1", false)
	waitFor(t, func() bool { return len(p.Nodes()) == 1 })

	x, _ := p.RegisterXApp("x")
	sub, err := x.Subscribe("gnb-1", 2, nil, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	node.ep.Close()
	select {
	case _, open := <-sub.C():
		if open {
			t.Error("expected closed channel after node disconnect")
		}
	case <-time.After(time.Second):
		t.Fatal("channel not closed after disconnect")
	}
	waitFor(t, func() bool { return len(p.Nodes()) == 0 })
}

func TestXAppNamesUnique(t *testing.T) {
	p := NewPlatform(sdl.New())
	defer p.Close()
	if _, err := p.RegisterXApp("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.RegisterXApp("a"); err == nil {
		t.Error("duplicate xApp name accepted")
	}
}

func TestProcedureTimeout(t *testing.T) {
	p := NewPlatform(sdl.New())
	defer p.Close()

	// A node that completes setup but never answers subscriptions.
	ricEnd, nodeEnd := e2ap.Pipe()
	go p.AttachNode(ricEnd)
	nodeEnd.Send(&e2ap.Message{Type: e2ap.TypeE2SetupRequest, NodeID: "mute"})
	if _, err := nodeEnd.Recv(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(p.Nodes()) == 1 })
	go func() { // swallow the subscription request silently
		for {
			if _, err := nodeEnd.Recv(); err != nil {
				return
			}
		}
	}()

	x, _ := p.RegisterXApp("x")
	if _, err := x.Subscribe("mute", 2, nil, nil, 1); !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

func TestPlatformClose(t *testing.T) {
	p := NewPlatform(sdl.New())
	node := startFakeNode(t, p, "gnb-1", false)
	waitFor(t, func() bool { return len(p.Nodes()) == 1 })
	p.Close()
	select {
	case <-node.done:
	case <-time.After(time.Second):
		t.Fatal("node serve loop did not stop on platform close")
	}
	if _, err := p.RegisterXApp("late"); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
	p.Close() // idempotent
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not met within deadline")
}

var _ = io.EOF
