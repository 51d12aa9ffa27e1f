// Package wire provides framed, bidirectional message transport for E2.
//
// Real O-RAN deployments carry E2AP over SCTP, which provides message
// boundaries on top of reliable delivery. The Go standard library has no
// SCTP support, so this package keeps the two properties the protocols
// above actually rely on — ordered reliable delivery and message framing
// (see DESIGN.md §1). E2 runs fully in-process in every executable, over
// Pipe: a queue of whole frames each way, so a frame costs one channel
// send and the sender does not wait for the receiver unless pipeDepth
// frames are already queued.
package wire

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// MaxFrameSize bounds a single frame. Send rejects a larger one, so a
// misbehaving peer cannot make its receiver hold an unbounded frame.
const MaxFrameSize = 16 << 20

// ErrFrameTooLarge is returned when a frame exceeds MaxFrameSize.
var ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")

// ErrClosed is returned by operations on a closed Conn.
var ErrClosed = errors.New("wire: connection closed")

// pipeDepth is how many frames a Pipe queues each way before Send waits
// for the receiver: room for a gNB report flush's burst of indications,
// so the agent hands them over without a rendezvous per frame, while a
// stalled receiver still stops its sender after a bounded number of
// frames.
const pipeDepth = 64

// A Conn is a framed message connection. It is safe for one concurrent
// reader and any number of concurrent writers.
type Conn struct {
	out chan<- []byte
	in  <-chan []byte

	// closed is closed by Close; a Pipe's two ends share it, so closing
	// either closes both.
	closeOnce *sync.Once
	closed    chan struct{}
}

// Pipe returns a connected pair of in-process Conns.
func Pipe() (*Conn, *Conn) {
	ab, ba := make(chan []byte, pipeDepth), make(chan []byte, pipeDepth)
	once, closed := new(sync.Once), make(chan struct{})
	return &Conn{out: ab, in: ba, closeOnce: once, closed: closed},
		&Conn{out: ba, in: ab, closeOnce: once, closed: closed}
}

// Send writes one framed message. It is safe to call concurrently, and
// the caller may reuse payload as soon as it returns.
func (c *Conn) Send(payload []byte) error {
	if len(payload) > MaxFrameSize {
		return fmt.Errorf("sending %d bytes: %w", len(payload), ErrFrameTooLarge)
	}
	select {
	case <-c.closed:
		return ErrClosed
	default:
	}
	// The frame the receiver gets is this copy: the one allocation a
	// frame costs.
	frame := make([]byte, len(payload))
	copy(frame, payload)
	select {
	case c.out <- frame:
		return nil
	case <-c.closed:
		return ErrClosed
	}
}

// Recv reads one framed message. It blocks until a frame arrives or the
// connection closes (io.EOF); a closed Pipe still delivers the frames
// queued before io.EOF. The frame is the caller's: it is the copy Send
// made, and nothing else keeps a reference to it.
func (c *Conn) Recv() ([]byte, error) {
	select {
	case frame := <-c.in:
		return frame, nil
	case <-c.closed:
		select {
		case frame := <-c.in:
			return frame, nil
		default:
			return nil, io.EOF
		}
	}
}

// Close closes the connection; closing either end of a Pipe closes both.
// Pending Recv calls return io.EOF once the queued frames are read. Close
// is idempotent.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}
