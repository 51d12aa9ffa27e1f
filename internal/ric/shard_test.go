package ric

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/e2ap"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// indicateUE emits an indication whose header's first byte carries the
// test's partition key (the real E2SM layer encodes a UE ID TLV; the
// dispatcher only sees the caller's ShardFunc either way).
func (n *fakeNode) indicateUE(req e2ap.RequestID, sn uint64, ue byte, payload []byte) error {
	return n.ep.Send(&e2ap.Message{
		Type: e2ap.TypeIndication, RequestID: req, IndicationSN: sn,
		IndicationHeader: []byte{ue}, IndicationMessage: payload,
	})
}

func headerKey(ind Indication) uint64 {
	if len(ind.Header) == 0 {
		return 0
	}
	return uint64(ind.Header[0])
}

// TestShardedOrderingAndFanout drives interleaved indications for many
// UEs through a sharded subscription with one concurrent consumer per
// shard, and asserts the two dispatch invariants: every indication of a
// UE lands on that UE's shard (key mod shards), and per-UE arrival order
// is preserved even though shards drain in parallel.
func TestShardedOrderingAndFanout(t *testing.T) {
	p := NewPlatform(sdl.New())
	defer p.Close()
	node := startFakeNode(t, p, "gnb-shard", false)
	waitFor(t, func() bool { return len(p.Nodes()) == 1 })

	x, err := p.RegisterXApp("shard-probe")
	if err != nil {
		t.Fatal(err)
	}
	const shards = 4
	sub, err := x.Subscribe("gnb-shard", 2, []byte("trigger"),
		[]e2ap.Action{{ID: 1, Type: e2ap.ActionReport}},
		SubscribeOptions{Shards: shards, Buffer: 256, Key: headerKey})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Shards() != shards || sub.NodeID() != "gnb-shard" {
		t.Fatalf("sub shape: shards=%d node=%q", sub.Shards(), sub.NodeID())
	}

	// One consumer goroutine per shard, all draining concurrently.
	type rec struct {
		ue  byte
		seq int
	}
	got := make([][]rec, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for ind := range sub.C(i) {
				var ue byte
				var seq int
				fmt.Sscanf(string(ind.Message), "%d/%d", &ue, &seq)
				got[i] = append(got[i], rec{ue, seq})
			}
		}(i)
	}

	const ues, perUE = 8, 25
	sn := uint64(0)
	for seq := 0; seq < perUE; seq++ {
		for ue := byte(1); ue <= ues; ue++ {
			sn++
			if err := node.indicateUE(sub.ID, sn, ue, []byte(fmt.Sprintf("%d/%d", ue, seq))); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, func() bool { return p.Metrics().IndicationsRouted.Load() >= ues*perUE })
	if err := sub.Delete(); err != nil {
		t.Fatal(err)
	}
	wg.Wait() // channels closed by Delete; consumers exit

	lastSeq := make(map[byte]int)
	total := 0
	for i := 0; i < shards; i++ {
		for _, r := range got[i] {
			if want := int(r.ue) % shards; want != i {
				t.Fatalf("UE %d observed on shard %d, want %d", r.ue, i, want)
			}
			if last, seen := lastSeq[r.ue]; seen && r.seq != last+1 {
				t.Fatalf("UE %d: seq %d after %d (per-UE order broken)", r.ue, r.seq, last)
			}
			lastSeq[r.ue] = r.seq
			total++
		}
	}
	if total != ues*perUE {
		t.Fatalf("delivered %d indications, want %d", total, ues*perUE)
	}
}

// TestShardedBackpressureIsolation stalls one shard until its bounded
// queue overflows and shows (a) the overflow drops are counted against
// that shard alone, and (b) the sibling shard keeps flowing — a slow
// consumer cannot wedge the E2 Termination or its neighbors.
func TestShardedBackpressureIsolation(t *testing.T) {
	p := NewPlatform(sdl.New())
	defer p.Close()
	node := startFakeNode(t, p, "gnb-bp", false)
	waitFor(t, func() bool { return len(p.Nodes()) == 1 })

	x, err := p.RegisterXApp("bp-probe")
	if err != nil {
		t.Fatal(err)
	}
	const buffer = 2
	sub, err := x.Subscribe("gnb-bp", 2, nil, nil,
		SubscribeOptions{Shards: 2, Buffer: buffer, Key: headerKey})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Delete()

	s0routed := obsShardIndications.With("bp-probe", "0", "routed")
	s0dropped := obsShardIndications.With("bp-probe", "0", "dropped")
	s1dropped := obsShardIndications.With("bp-probe", "1", "dropped")
	d0, d1 := s0dropped.Value(), s1dropped.Value()
	platformDropped := p.Metrics().IndicationsDropped.Load()

	// Nobody drains shard 0 (even keys): the first `buffer` indications
	// fill its queue, the rest hit the per-shard drop path.
	const sent = buffer + 3
	for i := 0; i < sent; i++ {
		if err := node.indicateUE(sub.ID, uint64(i+1), 2, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return s0dropped.Value() == d0+sent-buffer })
	if got := s0routed.Value(); got < buffer {
		t.Errorf("shard 0 routed = %d, want >= %d", got, buffer)
	}

	// Shard 1 (odd keys) still delivers while its sibling is saturated.
	done := make(chan Indication, 1)
	go func() {
		ind := <-sub.C(1)
		done <- ind
	}()
	if err := node.indicateUE(sub.ID, 100, 3, []byte("flows")); err != nil {
		t.Fatal(err)
	}
	select {
	case ind := <-done:
		if string(ind.Message) != "flows" || headerKey(ind) != 3 {
			t.Errorf("shard 1 delivery = %+v", ind)
		}
	case <-time.After(time.Second):
		t.Fatal("shard 1 starved by shard 0 backpressure")
	}
	if got := s1dropped.Value(); got != d1 {
		t.Errorf("shard 1 dropped = %d, want unchanged %d", got, d1)
	}
	// The platform-level drop counter attributes the same losses.
	if got := p.Metrics().IndicationsDropped.Load(); got != platformDropped+sent-buffer {
		t.Errorf("platform IndicationsDropped = %d, want %d", got, platformDropped+sent-buffer)
	}
}

// TestShardedDeleteClosesAllShards verifies teardown closes every shard
// stream exactly once and late indications are dropped, not delivered.
func TestShardedDeleteClosesAllShards(t *testing.T) {
	p := NewPlatform(sdl.New())
	defer p.Close()
	node := startFakeNode(t, p, "gnb-close", false)
	waitFor(t, func() bool { return len(p.Nodes()) == 1 })

	x, err := p.RegisterXApp("close-probe")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := x.Subscribe("gnb-close", 2, nil, nil,
		SubscribeOptions{Shards: 3, Buffer: 4, Key: headerKey})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Delete(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < sub.Shards(); i++ {
		select {
		case _, ok := <-sub.C(i):
			if ok {
				t.Fatalf("shard %d delivered after Delete", i)
			}
		case <-time.After(time.Second):
			t.Fatalf("shard %d channel not closed by Delete", i)
		}
	}
	// A straggler indication for the deleted subscription is dropped at
	// the platform, never reaching closed shard queues.
	before := p.Metrics().IndicationsDropped.Load()
	if err := node.indicateUE(sub.ID, 9, 1, []byte("late")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return p.Metrics().IndicationsDropped.Load() == before+1 })
}

// TestSubscribeShardedRequiresKey pins the option contract: several
// shards cannot be fed without a partition key, one shard needs none.
func TestSubscribeShardedRequiresKey(t *testing.T) {
	p := NewPlatform(sdl.New())
	defer p.Close()
	startFakeNode(t, p, "gnb-key", false)
	waitFor(t, func() bool { return len(p.Nodes()) == 1 })
	x, err := p.RegisterXApp("key-probe")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.Subscribe("gnb-key", 2, nil, nil, SubscribeOptions{Shards: 2}); err == nil {
		t.Fatal("Subscribe accepted a nil Key with Shards > 1")
	}
	sub, err := x.Subscribe("gnb-key", 2, nil, nil, SubscribeOptions{})
	if err != nil {
		t.Fatalf("Subscribe with default options: %v", err)
	}
	if sub.Shards() != 1 {
		t.Errorf("default Shards = %d, want 1", sub.Shards())
	}
}
