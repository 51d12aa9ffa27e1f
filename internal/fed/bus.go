package fed

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/6g-xsec/xsec/internal/asn1lite"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/wire"
)

// Bus topics used by the federation.
const (
	// TopicRing carries ring epochs (JSON, Ring.Encode).
	TopicRing = "ring"
	// TopicPolicy carries A1 policies (JSON, smo.Policy.Encode).
	TopicPolicy = "policy"
	// TopicMigrate carries UE snapshots toward their new owner.
	TopicMigrate = "migrate"
	// TopicMigrateAck carries the new owner's restore confirmations.
	TopicMigrateAck = "migrate-ack"
)

// DefaultRetain bounds each topic's retained log. Ring and policy
// history is tiny; migrate traffic is bounded by the concurrent
// migration cap, so a shallow log is enough for resume-after-reconnect.
const DefaultRetain = 1024

// Bus frame ops.
const (
	opPublish   = 1
	opSubscribe = 2
	opDeliver   = 3
)

// frame is the bus wire unit: op, topic, log offset (deliver and
// subscribe), payload (publish and deliver). Trace and Pub are the
// trace context: the originating chain key and the publisher's wall
// clock, so a subscriber can record the bus hop as a span on the
// message's distributed trace. Both are optional — untraced traffic
// omits the tags and decodes exactly as before.
type frame struct {
	Op      uint64
	Topic   string
	Offset  uint64
	Payload []byte
	Trace   string
	Pub     uint64 // publish wall clock, unix nanoseconds
}

func (f *frame) MarshalTLV(e *asn1lite.Encoder) {
	e.PutUint(1, f.Op)
	e.PutString(2, f.Topic)
	e.PutUint(3, f.Offset)
	if len(f.Payload) > 0 {
		e.PutBytes(4, f.Payload)
	}
	if f.Trace != "" {
		e.PutString(5, f.Trace)
	}
	if f.Pub != 0 {
		e.PutUint(6, f.Pub)
	}
}

func (f *frame) UnmarshalTLV(d *asn1lite.Decoder) error {
	*f = frame{}
	for d.Next() {
		var err error
		switch d.Tag() {
		case 1:
			f.Op, err = d.Uint()
		case 2:
			f.Topic, err = d.String()
		case 3:
			f.Offset, err = d.Uint()
		case 4:
			f.Payload, err = d.Bytes()
		case 5:
			f.Trace, err = d.String()
		case 6:
			f.Pub, err = d.Uint()
		}
		if err != nil {
			return err
		}
	}
	return d.Err()
}

// busMsg is one retained message: payload plus its trace context, kept
// so replays after reconnect carry the same context as the original
// delivery.
type busMsg struct {
	payload []byte
	trace   string
	pub     uint64
}

// topicLog is one topic's retained, offset-numbered message log. base
// is the offset of msgs[0]; older messages have been trimmed.
type topicLog struct {
	base uint64
	msgs []busMsg
}

// busConn is one subscriber connection on the broker side. Frames are
// never written under the broker lock: they are enqueued on out and a
// dedicated writer goroutine drains it, so a slow or blocked peer can
// only lose its own messages (counted), never stall the broker.
type busConn struct {
	c    *wire.Conn
	out  chan frame
	subs map[string]bool
}

// Broker is the federation bus hub. Topics are retained logs, so a
// subscriber that names its resume offset replays everything it missed;
// publishes fan out to current subscribers with per-connection queues.
type Broker struct {
	ln     *wire.Listener
	retain int

	mu     sync.Mutex
	topics map[string]*topicLog
	conns  map[*busConn]struct{}
	local  map[string][]LocalHandler
	closed bool
}

// LocalHandler observes bus traffic broker-side without a connection.
// Handlers run synchronously after the broker lock is released, on the
// goroutine that published — keep them fast and non-blocking.
type LocalHandler func(offset uint64, payload []byte, trace string)

// NewBroker listens on addr (use "127.0.0.1:0" for an ephemeral port).
func NewBroker(addr string) (*Broker, error) {
	ln, err := wire.Listen(addr)
	if err != nil {
		return nil, fmt.Errorf("fed: bus listen: %w", err)
	}
	b := &Broker{
		ln:     ln,
		retain: DefaultRetain,
		topics: make(map[string]*topicLog),
		conns:  make(map[*busConn]struct{}),
		local:  make(map[string][]LocalHandler),
	}
	go wire.Serve(ln, b.handle)
	return b, nil
}

// Addr returns the broker's listen address.
func (b *Broker) Addr() string { return b.ln.Addr().String() }

// Close stops the broker and severs every subscriber.
func (b *Broker) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	conns := make([]*busConn, 0, len(b.conns))
	for bc := range b.conns {
		conns = append(conns, bc)
		delete(b.conns, bc)
	}
	b.mu.Unlock()
	b.ln.Close()
	for _, bc := range conns {
		close(bc.out)
		bc.c.Close()
	}
}

// Publish appends payload to topic's log and fans it out. The
// coordinator publishes through this local method; remote instances
// publish through their Client, which lands here via opPublish.
func (b *Broker) Publish(topic string, payload []byte) error {
	return b.publish(topic, payload, "", uint64(time.Now().UnixNano()))
}

// SubscribeLocal registers a broker-side observer for topic. It sees
// every future message on the topic (no replay of the retained log) and
// runs on the publisher's goroutine after the broker lock is released.
// The colocated fleet collector uses this to consume heartbeats and
// reports without a loopback connection.
func (b *Broker) SubscribeLocal(topic string, fn LocalHandler) {
	b.mu.Lock()
	b.local[topic] = append(b.local[topic], fn)
	b.mu.Unlock()
}

func (b *Broker) publish(topic string, payload []byte, trace string, pub uint64) error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return errors.New("fed: bus closed")
	}
	log := b.topics[topic]
	if log == nil {
		log = &topicLog{}
		b.topics[topic] = log
	}
	offset := log.base + uint64(len(log.msgs))
	log.msgs = append(log.msgs, busMsg{payload: append([]byte(nil), payload...), trace: trace, pub: pub})
	if len(log.msgs) > b.retain {
		drop := len(log.msgs) - b.retain
		log.msgs = log.msgs[drop:]
		log.base += uint64(drop)
	}
	for bc := range b.conns {
		if bc.subs[topic] {
			b.enqueue(bc, frame{Op: opDeliver, Topic: topic, Offset: offset, Payload: payload, Trace: trace, Pub: pub})
		}
	}
	local := b.local[topic]
	b.mu.Unlock()
	obsBusPublished.With(topic).Inc()
	for _, fn := range local {
		fn(offset, payload, trace)
	}
	return nil
}

// enqueue hands a frame to a connection's writer without blocking;
// overflow drops the frame and counts it (the subscriber re-syncs from
// its resume offset on reconnect).
func (b *Broker) enqueue(bc *busConn, f frame) {
	select {
	case bc.out <- f:
		obsBusDelivered.With(f.Topic).Inc()
	default:
		obsBusDropped.With(f.Topic).Inc()
	}
}

func (b *Broker) handle(c *wire.Conn) {
	bc := &busConn{c: c, out: make(chan frame, 256), subs: make(map[string]bool)}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		c.Close()
		return
	}
	b.conns[bc] = struct{}{}
	b.mu.Unlock()

	// Writer: the only goroutine that sends on this connection.
	go func() {
		var enc asn1lite.Encoder
		for f := range bc.out {
			enc.Reset()
			f.MarshalTLV(&enc)
			if err := c.Send(enc.Bytes()); err != nil {
				return
			}
		}
	}()

	for {
		data, err := c.Recv()
		if err != nil {
			break
		}
		var f frame
		if err := asn1lite.Unmarshal(data, &f); err != nil {
			break
		}
		switch f.Op {
		case opPublish:
			pub := f.Pub
			if pub == 0 {
				pub = uint64(time.Now().UnixNano())
			}
			b.publish(f.Topic, f.Payload, f.Trace, pub)
		case opSubscribe:
			b.subscribe(bc, f.Topic, f.Offset)
		}
	}

	b.mu.Lock()
	if _, live := b.conns[bc]; live {
		delete(b.conns, bc)
		close(bc.out)
	}
	b.mu.Unlock()
	c.Close()
}

// subscribe registers bc on topic and replays the retained log from the
// requested offset, clamped to what is still retained.
func (b *Broker) subscribe(bc *busConn, topic string, from uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	bc.subs[topic] = true
	log := b.topics[topic]
	if log == nil {
		return
	}
	start := from
	if start < log.base {
		start = log.base
	}
	for off := start; off < log.base+uint64(len(log.msgs)); off++ {
		m := log.msgs[off-log.base]
		b.enqueue(bc, frame{Op: opDeliver, Topic: topic, Offset: off, Payload: m.payload, Trace: m.trace, Pub: m.pub})
	}
}

// Client is an instance's bus endpoint. It dials the broker, replays
// each subscribed topic from its per-topic resume offset, and
// reconnects with backoff after failures. While disconnected the
// instance is degraded, not dead: Publish returns an error the caller
// counts, subscriptions resume where they left off once the broker is
// reachable again.
type Client struct {
	instance string
	dial     func() (*wire.Conn, error)

	mu       sync.Mutex
	conn     *wire.Conn
	next     map[string]uint64
	handlers map[string]func(offset uint64, payload []byte, trace string)
	topics   []string // handlers' keys in the order they were first subscribed
	closed   bool

	connected atomic.Bool
	done      chan struct{}
	wg        sync.WaitGroup
}

// NewClient starts a bus client using dial to (re)establish transport.
// instance labels this client's degraded-mode metrics.
func NewClient(instance string, dial func() (*wire.Conn, error)) *Client {
	c := &Client{
		instance: instance,
		dial:     dial,
		next:     make(map[string]uint64),
		handlers: make(map[string]func(uint64, []byte, string)),
		done:     make(chan struct{}),
	}
	c.wg.Add(1)
	go c.run()
	return c
}

// DialBus connects to a broker address.
func DialBus(instance, addr string) *Client {
	return NewClient(instance, func() (*wire.Conn, error) {
		return wire.Dial(addr, time.Second)
	})
}

// Connected reports whether the broker is currently reachable.
func (c *Client) Connected() bool { return c.connected.Load() }

// Subscribe registers a handler for topic, resuming from the earliest
// retained message (offset 0) on first subscription. Handlers run on
// the client's read goroutine and must not block.
func (c *Client) Subscribe(topic string, fn func(offset uint64, payload []byte)) {
	c.SubscribeTraced(topic, func(offset uint64, payload []byte, _ string) { fn(offset, payload) })
}

// SubscribeTraced is Subscribe with the message's trace context (empty
// for untraced traffic). The bus hop span is recorded by the client
// before the handler runs.
func (c *Client) SubscribeTraced(topic string, fn func(offset uint64, payload []byte, trace string)) {
	c.mu.Lock()
	if _, ok := c.handlers[topic]; !ok {
		c.topics = append(c.topics, topic)
	}
	c.handlers[topic] = fn
	if _, ok := c.next[topic]; !ok {
		c.next[topic] = 0
	}
	conn, from := c.conn, c.next[topic]
	c.mu.Unlock()
	if conn != nil {
		c.send(conn, frame{Op: opSubscribe, Topic: topic, Offset: from})
	}
}

// Publish sends payload to topic through the broker. While the broker
// is unreachable it fails fast — federation degrades to standalone
// operation instead of blocking the detection path.
func (c *Client) Publish(topic string, payload []byte) error {
	return c.PublishTraced(topic, payload, "")
}

// PublishTraced publishes with a trace context: the chain key travels
// in the frame (not the payload), and every subscriber records the bus
// hop as a span on that trace.
func (c *Client) PublishTraced(topic string, payload []byte, trace string) error {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	if conn == nil || !c.connected.Load() {
		obsBusPublishFailures.With(c.instance).Inc()
		return errors.New("fed: bus unreachable (degraded)")
	}
	f := frame{Op: opPublish, Topic: topic, Payload: payload, Trace: trace, Pub: uint64(time.Now().UnixNano())}
	if err := c.send(conn, f); err != nil {
		obsBusPublishFailures.With(c.instance).Inc()
		conn.Close() // wake the read loop into reconnect
		return fmt.Errorf("fed: bus publish: %w", err)
	}
	return nil
}

func (c *Client) send(conn *wire.Conn, f frame) error {
	var enc asn1lite.Encoder
	f.MarshalTLV(&enc)
	return conn.Send(enc.Bytes())
}

// Close stops the client.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	conn := c.conn
	c.mu.Unlock()
	close(c.done)
	if conn != nil {
		conn.Close()
	}
	c.wg.Wait()
}

func (c *Client) run() {
	defer c.wg.Done()
	backoff := 20 * time.Millisecond
	for {
		select {
		case <-c.done:
			return
		default:
		}
		conn, err := c.dial()
		if err != nil {
			if !c.sleep(backoff) {
				return
			}
			if backoff < 500*time.Millisecond {
				backoff *= 2
			}
			continue
		}
		backoff = 20 * time.Millisecond

		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		c.conn = conn
		resume := make([]frame, len(c.topics))
		for n, topic := range c.topics {
			resume[n] = frame{Op: opSubscribe, Topic: topic, Offset: c.next[topic]}
		}
		c.mu.Unlock()
		// In subscription order, not map order: the broker replays each
		// topic's retained log as it is subscribed, so whoever subscribes
		// to the ring before the migrations (Instance does) applies every
		// retained epoch before the first snapshot addressed to it. The
		// other way round a joiner restores a UE, then applies the stale
		// epoch that does not list it yet, and migrates the UE back.
		for _, f := range resume {
			c.send(conn, f)
		}
		c.connected.Store(true)
		obs.L().Info("fed: bus connected", "instance", c.instance)

		c.read(conn)

		c.connected.Store(false)
		c.mu.Lock()
		c.conn = nil
		closed := c.closed
		c.mu.Unlock()
		conn.Close()
		if closed {
			return
		}
		obs.L().Warn("fed: bus disconnected, entering degraded mode", "instance", c.instance)
	}
}

func (c *Client) read(conn *wire.Conn) {
	for {
		data, err := conn.Recv()
		if err != nil {
			return
		}
		var f frame
		if err := asn1lite.Unmarshal(data, &f); err != nil {
			return
		}
		if f.Op != opDeliver {
			continue
		}
		c.mu.Lock()
		fn := c.handlers[f.Topic]
		if f.Offset >= c.next[f.Topic] {
			c.next[f.Topic] = f.Offset + 1
		} else {
			fn = nil // already seen before a reconnect; don't re-deliver
		}
		c.mu.Unlock()
		if fn != nil {
			if f.Trace != "" && f.Pub != 0 {
				// The bus hop itself becomes a span on the message's
				// distributed trace: publisher's clock to arrival here.
				obs.RecordSpan(f.Trace, "fed.bus."+f.Topic, time.Unix(0, int64(f.Pub)), time.Now())
			}
			fn(f.Offset, f.Payload, f.Trace)
		}
	}
}

// sleep waits d or until Close; it reports false when closing.
func (c *Client) sleep(d time.Duration) bool {
	select {
	case <-c.done:
		return false
	case <-time.After(d):
		return true
	}
}
