package fed

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/asn1lite"
	"github.com/6g-xsec/xsec/internal/obs"
)

func waitConnected(t *testing.T, c *Client) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !c.Connected() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if !c.Connected() {
		t.Fatal("client never connected to broker")
	}
}

func TestBusFrameTraceRoundTrip(t *testing.T) {
	in := frame{
		Op: opDeliver, Topic: "migrate", Offset: 42,
		Payload: []byte("snapshot"),
		Trace:   "gnb-ric-0/17",
		Pub:     uint64(time.Now().UnixNano()),
	}
	var out frame
	if err := asn1lite.Unmarshal(asn1lite.Marshal(&in), &out); err != nil {
		t.Fatal(err)
	}
	if out.Trace != in.Trace || out.Pub != in.Pub || out.Offset != 42 ||
		out.Topic != "migrate" || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}

	// Untraced frames omit the context tags entirely and decode with
	// zero values — the pre-trace wire format is unchanged.
	plain := frame{Op: opPublish, Topic: "policy", Payload: []byte("p")}
	raw := asn1lite.Marshal(&plain)
	traced := asn1lite.Marshal(&in)
	if len(raw) >= len(traced) {
		t.Fatalf("untraced frame (%dB) not smaller than traced (%dB)", len(raw), len(traced))
	}
	var back frame
	if err := asn1lite.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Trace != "" || back.Pub != 0 {
		t.Fatalf("untraced frame decoded trace context: %+v", back)
	}
}

func TestBusTracePropagatesEndToEnd(t *testing.T) {
	b, err := NewBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	pub := DialBus("ric-pub", b.Addr())
	defer pub.Close()
	sub := DialBus("ric-sub", b.Addr())
	defer sub.Close()

	var mu sync.Mutex
	var traces []string
	subDone := make(chan struct{})
	sub.SubscribeTraced("tr-topic", func(_ uint64, payload []byte, trace string) {
		mu.Lock()
		traces = append(traces, trace)
		mu.Unlock()
		if len(traces) == 2 {
			close(subDone)
		}
	})

	waitConnected(t, pub)
	const key = "gnb-trace-test/1"
	if err := pub.PublishTraced("tr-topic", []byte("hello"), key); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("tr-topic", []byte("plain")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-subDone:
	case <-time.After(5 * time.Second):
		t.Fatalf("deliveries never arrived; have %v", traces)
	}
	mu.Lock()
	got := append([]string(nil), traces...)
	mu.Unlock()
	if got[0] != key || got[1] != "" {
		t.Fatalf("delivered traces = %v", got)
	}

	// The traced delivery recorded the bus hop as a span on the
	// message's distributed trace.
	deadline := time.Now().Add(5 * time.Second)
	for {
		spans := obs.DefaultTracer.ByKey(key)
		if len(spans) > 0 {
			if spans[0].Stage != "fed.bus.tr-topic" {
				t.Fatalf("bus hop stage = %q", spans[0].Stage)
			}
			if spans[0].End.Before(spans[0].Start) {
				t.Fatalf("bus hop span runs backwards: %+v", spans[0])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("bus hop span never recorded")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Reconnect replay retains the context: a late subscriber sees the
	// same trace on the retained message.
	late := DialBus("ric-late", b.Addr())
	defer late.Close()
	replayed := make(chan string, 4)
	late.SubscribeTraced("tr-topic", func(_ uint64, _ []byte, trace string) { replayed <- trace })
	select {
	case tr := <-replayed:
		if tr != key {
			t.Fatalf("replayed trace = %q, want %q", tr, key)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retained message never replayed")
	}
}
