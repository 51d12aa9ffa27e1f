package e2ap

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/wire"
)

// encBufPool recycles encode buffers across Send calls (and across
// endpoints — the E2 Termination serves one goroutine per connected gNB,
// all drawing from the same pool). wire.Conn.Send is done with the buffer
// when it returns — a Pipe queues a copy — so returning it to the pool
// right after Send is safe.
var encBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 512); return &b },
}

// Per-direction, per-procedure transport counters. The series handles
// are interned once per message type at init so the Send/Recv hot
// paths pay a single atomic add each.
var (
	e2apMessages = obs.NewCounterVec("xsec_e2ap_messages_total",
		"E2AP messages crossing endpoints, by direction and procedure.", "dir", "type")
	e2apErrors = obs.NewCounterVec("xsec_e2ap_errors_total",
		"E2AP transport failures, by direction.", "dir")

	txByType, rxByType [typeCount]*obs.Counter
	txErrors           = e2apErrors.With("tx")
	rxErrors           = e2apErrors.With("rx")
)

func init() {
	for t := TypeInvalid; t < typeCount; t++ {
		txByType[t] = e2apMessages.With("tx", t.String())
		rxByType[t] = e2apMessages.With("rx", t.String())
	}
}

// Endpoint sends and receives E2AP messages over a framed connection. It
// is used by both sides of the E2 interface: the gNB's RIC agent and the
// RIC's E2 Termination.
type Endpoint struct {
	conn    *wire.Conn
	nextTxn atomic.Uint64
	// nodeID, when set, attributes outbound indications to their
	// emitting node so the transport hop joins the provenance chain.
	nodeID atomic.Value // string
}

// SetNodeID names the E2 node this endpoint transmits for (the gNB
// agent sets it before the setup handshake). Safe for concurrent use
// with Send.
func (ep *Endpoint) SetNodeID(id string) { ep.nodeID.Store(id) }

// NewEndpoint wraps an established framed connection.
func NewEndpoint(conn *wire.Conn) *Endpoint {
	return &Endpoint{conn: conn}
}

// Send encodes and transmits a message, assigning a fresh transaction ID
// when the message has none.
func (ep *Endpoint) Send(m *Message) error {
	if m.TransactionID == 0 {
		m.TransactionID = ep.nextTxn.Add(1)
	}
	bp := encBufPool.Get().(*[]byte)
	*bp = AppendEncode((*bp)[:0], m)
	err := ep.conn.Send(*bp)
	encBufPool.Put(bp)
	if err != nil {
		txErrors.Inc()
		return fmt.Errorf("e2ap: sending %s: %w", m.Type, err)
	}
	if m.Type < typeCount {
		txByType[m.Type].Inc()
	}
	if m.Type == TypeIndication {
		if n, ok := ep.nodeID.Load().(string); ok && n != "" {
			prov.Record(prov.Event{
				Chain: prov.ChainID{Node: n, SN: m.IndicationSN},
				Kind:  prov.KindTransport,
				Label: "sent",
			})
		}
	}
	return nil
}

// Recv blocks for the next message. io.EOF signals a clean peer close.
// The connection hands each received frame over, so the message is
// decoded in place: its byte fields are views of the frame, not copies,
// and a field kept keeps the whole frame (the RIC's subscribers copy
// what they store).
func (ep *Endpoint) Recv() (*Message, error) {
	data, err := ep.conn.Recv()
	if err != nil {
		return nil, err
	}
	m, err := decodeOwned(data)
	if err != nil {
		rxErrors.Inc()
		return nil, fmt.Errorf("e2ap: receiving: %w", err)
	}
	if m.Type < typeCount {
		rxByType[m.Type].Inc()
	}
	return m, nil
}

// Close closes the underlying connection.
func (ep *Endpoint) Close() error { return ep.conn.Close() }

// Pipe returns a connected in-process endpoint pair for tests and
// loopback deployments.
func Pipe() (*Endpoint, *Endpoint) {
	a, b := wire.Pipe()
	return NewEndpoint(a), NewEndpoint(b)
}
