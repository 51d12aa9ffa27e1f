package mobiwatch

import (
	"context"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/e2ap"
	"github.com/6g-xsec/xsec/internal/ric"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// garbageNode is an E2 node that admits (and deletes) subscriptions and
// sends only what a test makes it send: malformed indication payloads for
// the xApp's decode path, hand-built valid ones for the pipeline tests.
type garbageNode struct {
	ep   *e2ap.Endpoint
	subs chan e2ap.RequestID
}

func startGarbageNode(t *testing.T, p *ric.Platform) *garbageNode {
	t.Helper()
	ricEnd, nodeEnd := e2ap.Pipe()
	go p.AttachNode(ricEnd)
	n := &garbageNode{ep: nodeEnd, subs: make(chan e2ap.RequestID, 4)}
	if err := nodeEnd.Send(&e2ap.Message{Type: e2ap.TypeE2SetupRequest, NodeID: "garbage-node"}); err != nil {
		t.Fatal(err)
	}
	if resp, err := nodeEnd.Recv(); err != nil || resp.Type != e2ap.TypeE2SetupResponse {
		t.Fatalf("setup: %+v %v", resp, err)
	}
	for len(p.Nodes()) == 0 { // listed once the RIC has seen the response written
		time.Sleep(time.Millisecond)
	}
	go func() {
		for {
			msg, err := nodeEnd.Recv()
			if err != nil {
				return
			}
			switch msg.Type {
			case e2ap.TypeSubscriptionRequest:
				nodeEnd.Send(&e2ap.Message{Type: e2ap.TypeSubscriptionResponse, RequestID: msg.RequestID})
				n.subs <- msg.RequestID
			case e2ap.TypeSubscriptionDeleteRequest:
				nodeEnd.Send(&e2ap.Message{Type: e2ap.TypeSubscriptionDeleteResponse, RequestID: msg.RequestID})
			}
		}
	}()
	return n
}

func TestXAppSurvivesMalformedIndications(t *testing.T) {
	_, _, models := fixtures(t)
	store := sdl.New()
	p := ric.NewPlatform(store)
	defer p.Close()
	node := startGarbageNode(t, p)
	waitReady(t, p)

	x, err := p.RegisterXApp("mobiwatch")
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Run(x, models, RunOptions{NodeID: "garbage-node", ReportPeriod: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	reqID := <-node.subs

	// A stream of malformed payloads must not crash the runtime or
	// produce alerts.
	for i := 0; i < 10; i++ {
		node.ep.Send(&e2ap.Message{
			Type: e2ap.TypeIndication, RequestID: reqID,
			IndicationSN: uint64(i), IndicationMessage: []byte{0x01, 0xFF, 0x42},
		})
	}
	time.Sleep(50 * time.Millisecond)
	if got := rt.Stats().BatchesHandled.Load(); got != 0 {
		t.Errorf("malformed batches handled = %d", got)
	}
	if n := rt.Stats().AlertsRaised.Load() + rt.Stats().AlertsDropped.Load(); n != 0 {
		t.Fatalf("%d alerts from garbage", n)
	}

	// An empty-but-valid batch is also harmless.
	node.ep.Send(&e2ap.Message{
		Type: e2ap.TypeIndication, RequestID: reqID,
		IndicationSN: 99, IndicationMessage: nil,
	})
	time.Sleep(20 * time.Millisecond)
	if rt.Stats().RecordsSeen.Load() != 0 {
		t.Error("records seen from empty batch")
	}
	rt.Stop()
}

func TestXAppStopsWhenNodeVanishes(t *testing.T) {
	_, _, models := fixtures(t)
	p := ric.NewPlatform(sdl.New())
	defer p.Close()
	node := startGarbageNode(t, p)
	waitReady(t, p)

	x, _ := p.RegisterXApp("mobiwatch")
	rt, err := Run(x, models, RunOptions{NodeID: "garbage-node", ReportPeriod: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	<-node.subs
	node.ep.Close() // node dies

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, _, ok := rt.Take(ctx, nil); ok {
		t.Error("alert instead of close after node death")
	}
	if ctx.Err() != nil {
		t.Fatal("triage queue not closed after node death")
	}
}

func waitReady(t *testing.T, p *ric.Platform) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for len(p.Nodes()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("node not attached")
		}
		time.Sleep(time.Millisecond)
	}
}
