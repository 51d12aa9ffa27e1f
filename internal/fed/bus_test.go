package fed

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/wire"
)

// collect gathers deliveries for assertions.
type collect struct {
	mu   sync.Mutex
	msgs []string
}

func (c *collect) add(payload []byte) {
	c.mu.Lock()
	c.msgs = append(c.msgs, string(payload))
	c.mu.Unlock()
}

func (c *collect) snapshot() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.msgs...)
}

func (c *collect) waitLen(t *testing.T, n int) []string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if got := c.snapshot(); len(got) >= n {
			return got
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d messages, have %v", n, c.snapshot())
	return nil
}

func TestBusRetainedResume(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// Published before any subscriber exists — retained.
	for i := 0; i < 3; i++ {
		if err := b.Publish("policy", []byte(fmt.Sprintf("p%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	c := DialBus("ric-test", b.Addr())
	defer c.Close()
	var got collect
	c.Subscribe("policy", func(_ uint64, payload []byte) { got.add(payload) })

	msgs := got.waitLen(t, 3)
	for i, want := range []string{"p0", "p1", "p2"} {
		if msgs[i] != want {
			t.Fatalf("replayed log = %v", msgs)
		}
	}

	// Live messages continue from the retained history, in order.
	b.Publish("policy", []byte("p3"))
	msgs = got.waitLen(t, 4)
	if msgs[3] != "p3" {
		t.Fatalf("live tail = %v", msgs)
	}
}

func TestBusClientPublishRoutesThroughBroker(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	sub := DialBus("ric-sub", b.Addr())
	defer sub.Close()
	var got collect
	sub.Subscribe("migrate", func(_ uint64, payload []byte) { got.add(payload) })

	pub := DialBus("ric-pub", b.Addr())
	defer pub.Close()
	deadline := time.Now().Add(5 * time.Second)
	for !pub.Connected() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := pub.Publish("migrate", []byte("snapshot")); err != nil {
		t.Fatal(err)
	}
	if got.waitLen(t, 1)[0] != "snapshot" {
		t.Fatal("publish did not reach the subscriber")
	}
}

func TestBusDegradedModeAndReconnectResume(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Publish("ring", []byte("epoch1"))

	// A dial gate simulates the broker being unreachable.
	var reachable atomic.Bool
	failedBefore := obsBusPublishFailures.With("ric-flaky").Value()
	c := NewClient("ric-flaky", func() (*wire.Conn, error) {
		if !reachable.Load() {
			return nil, fmt.Errorf("network unreachable")
		}
		return wire.Dial(b.Addr(), time.Second)
	})
	defer c.Close()
	var got collect
	c.Subscribe("ring", func(_ uint64, payload []byte) { got.add(payload) })

	// Degraded: not connected, publishes fail fast and are counted,
	// nothing delivered.
	time.Sleep(100 * time.Millisecond)
	if c.Connected() {
		t.Fatal("client claims connectivity with no reachable broker")
	}
	if err := c.Publish("ring", []byte("x")); err == nil {
		t.Fatal("degraded publish succeeded")
	}
	if obsBusPublishFailures.With("ric-flaky").Value() == failedBefore {
		t.Fatal("degraded publish not counted")
	}
	if len(got.snapshot()) != 0 {
		t.Fatalf("deliveries while unreachable: %v", got.snapshot())
	}

	// Broker becomes reachable: the client reconnects on its own and
	// resumes the topic from the first retained offset.
	b.Publish("ring", []byte("epoch2"))
	reachable.Store(true)
	msgs := got.waitLen(t, 2)
	if msgs[0] != "epoch1" || msgs[1] != "epoch2" {
		t.Fatalf("resume replay = %v", msgs)
	}

	deadline := time.Now().Add(5 * time.Second)
	for !c.Connected() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !c.Connected() {
		t.Fatal("client never reported reconnect")
	}
	if err := c.Publish("ring", []byte("epoch3")); err != nil {
		t.Fatalf("publish after reconnect: %v", err)
	}
	msgs = got.waitLen(t, 3)
	if msgs[2] != "epoch3" {
		t.Fatalf("post-reconnect tail = %v", msgs)
	}
}

// TestBusReplaysTopicsInSubscriptionOrder: a client that connects after
// messages were retained on several topics sees each topic's log whole, in
// the order it subscribed to the topics — every ring epoch before the
// first migration, which is what keeps a joining instance from restoring
// a UE and then applying a stale epoch that sends it back. With five
// topics, map order would get this right one time in 120.
func TestBusReplaysTopicsInSubscriptionOrder(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	topics := []string{TopicRing, TopicPolicy, TopicMigrate, TopicMigrateAck, "scrape"}
	for round := 0; round < 2; round++ {
		for _, topic := range topics {
			b.Publish(topic, []byte(fmt.Sprintf("%s-%d", topic, round)))
		}
	}

	var gate atomic.Bool
	c := NewClient("ric-joiner", func() (*wire.Conn, error) {
		if !gate.Load() {
			return nil, fmt.Errorf("not yet")
		}
		return wire.Dial(b.Addr(), time.Second)
	})
	defer c.Close()
	var got collect
	for _, topic := range topics {
		c.Subscribe(topic, func(_ uint64, payload []byte) { got.add(payload) })
	}
	gate.Store(true) // every subscription is registered before the first connect

	var want []string
	for _, topic := range topics {
		want = append(want, topic+"-0", topic+"-1")
	}
	if msgs := got.waitLen(t, len(want)); fmt.Sprint(msgs) != fmt.Sprint(want) {
		t.Fatalf("replay order\n  got  %v\n  want %v", msgs, want)
	}
}
