package ric

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/e2ap"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// TestQueueKeepsArrivalOrder drives interleaved indications for many UEs
// through a subscription while one consumer drains it concurrently: every
// indication is delivered once, in the order the node sent it.
func TestQueueKeepsArrivalOrder(t *testing.T) {
	p := NewPlatform(sdl.New())
	defer p.Close()
	node := startFakeNode(t, p, "gnb-order", false)
	waitFor(t, func() bool { return len(p.Nodes()) == 1 })

	x, err := p.RegisterXApp("order-probe")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := x.Subscribe("gnb-order", 2, []byte("trigger"),
		[]e2ap.Action{{ID: 1, Type: e2ap.ActionReport}}, 256)
	if err != nil {
		t.Fatal(err)
	}
	if sub.nodeID != "gnb-order" {
		t.Fatalf("sub node = %q", sub.nodeID)
	}

	var got []string
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ind := range sub.C() {
			got = append(got, string(ind.Message))
		}
	}()

	const ues, perUE = 8, 25
	var sent []string
	for seq := 0; seq < perUE; seq++ {
		for ue := 1; ue <= ues; ue++ {
			msg := fmt.Sprintf("%d/%d", ue, seq)
			sent = append(sent, msg)
			if err := node.indicate(sub.ID, uint64(len(sent)), []byte(msg)); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, func() bool { return p.Metrics().IndicationsRouted.Load() >= ues*perUE })
	if err := sub.Delete(); err != nil {
		t.Fatal(err)
	}
	wg.Wait() // the stream is closed by Delete; the consumer exits

	if len(got) != len(sent) {
		t.Fatalf("delivered %d indications, want %d", len(got), len(sent))
	}
	for i := range sent {
		if got[i] != sent[i] {
			t.Fatalf("indication %d delivered as %q, want %q (arrival order broken)", i, got[i], sent[i])
		}
	}
}

// TestFullQueueDropsAreCounted leaves the queue undrained until it
// overflows: each indication past its capacity is dropped and counted,
// in the platform's IndicationsDropped and in
// xsec_ric_indications_total{outcome="dropped"}, and the E2 Termination
// keeps routing. Drained, the queue holds the first indications in order
// and delivers again.
func TestFullQueueDropsAreCounted(t *testing.T) {
	p := NewPlatform(sdl.New())
	defer p.Close()
	node := startFakeNode(t, p, "gnb-bp", false)
	waitFor(t, func() bool { return len(p.Nodes()) == 1 })

	x, err := p.RegisterXApp("bp-probe")
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 2
	sub, err := x.Subscribe("gnb-bp", 2, nil, nil, capacity)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Delete()

	routed := obsIndications.With("bp-probe", "routed")
	dropped := obsIndications.With("bp-probe", "dropped")
	r0, d0 := routed.Value(), dropped.Value()
	platformDropped := p.Metrics().IndicationsDropped.Load()

	const sent = capacity + 3
	for i := 0; i < sent; i++ {
		if err := node.indicate(sub.ID, uint64(i+1), []byte(fmt.Sprint(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return dropped.Value() == d0+sent-capacity })
	if got := routed.Value(); got != r0+capacity {
		t.Errorf("routed = %d, want %d", got, r0+capacity)
	}
	if got := p.Metrics().IndicationsDropped.Load(); got != platformDropped+sent-capacity {
		t.Errorf("platform IndicationsDropped = %d, want %d", got, platformDropped+sent-capacity)
	}

	for i := 1; i <= capacity; i++ {
		if ind := <-sub.C(); string(ind.Message) != fmt.Sprint(i) {
			t.Errorf("queued indication %d = %q", i, ind.Message)
		}
	}
	if err := node.indicate(sub.ID, 100, []byte("flows")); err != nil {
		t.Fatal(err)
	}
	select {
	case ind := <-sub.C():
		if string(ind.Message) != "flows" {
			t.Errorf("delivery after the drain = %+v", ind)
		}
	case <-time.After(time.Second):
		t.Fatal("a drained queue does not deliver again")
	}
	if got := dropped.Value(); got != d0+sent-capacity {
		t.Errorf("dropped = %d after the drain, want %d", got, d0+sent-capacity)
	}
}

// TestDeleteClosesTheStreamOnce deletes a subscription while its node is
// still sending: the stream is closed, nothing is delivered after it, a
// late indication is dropped at the platform, not delivered, and closing
// it again — as a node detach racing Delete does — is a no-op, not a
// second close's panic.
func TestDeleteClosesTheStreamOnce(t *testing.T) {
	p := NewPlatform(sdl.New())
	defer p.Close()
	node := startFakeNode(t, p, "gnb-close", false)
	waitFor(t, func() bool { return len(p.Nodes()) == 1 })

	x, err := p.RegisterXApp("close-probe")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := x.Subscribe("gnb-close", 2, nil, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	sending := make(chan struct{})
	go func() {
		defer close(sending)
		for sn := uint64(1); sn <= 64; sn++ {
			node.indicate(sub.ID, sn, []byte("racing"))
		}
	}()
	if err := sub.Delete(); err != nil {
		t.Fatal(err)
	}
	<-sending
	m := p.Metrics()
	waitFor(t, func() bool { return m.IndicationsRouted.Load()+m.IndicationsDropped.Load() == 64 })
	timeout := time.After(time.Second)
	for open := true; open; {
		select {
		case _, open = <-sub.C():
		case <-timeout:
			t.Fatal("stream not closed by Delete")
		}
	}
	before := m.IndicationsDropped.Load()
	if err := node.indicate(sub.ID, 99, []byte("late")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return m.IndicationsDropped.Load() == before+1 })

	sub.closeCh()
	if _, open := <-sub.C(); open {
		t.Error("delivered after Delete")
	}
}
