// Package wire provides framed, bidirectional message transport for E2
// and the federation bus.
//
// Real O-RAN deployments carry E2AP over SCTP, which provides message
// boundaries on top of reliable delivery. The Go standard library has no
// SCTP support, so this package keeps the two properties the protocols
// above actually rely on — ordered reliable delivery and message framing
// (see DESIGN.md §1) — two ways. E2 runs fully in-process in every
// executable, over Pipe: a queue of whole frames each way, so a frame
// costs one channel send and the sender does not wait for the receiver
// unless pipeDepth frames are already queued. The federation bus runs
// over TCP (Dial, Listen), a byte stream, where each frame is a 4-byte
// big-endian length prefix and the payload.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// MaxFrameSize bounds a single frame. Frames beyond this are rejected on
// both send and receive so a misbehaving peer cannot force unbounded
// allocation.
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
	// nc is the byte stream under a Dial or Listen connection; nil for a
	// Pipe end, which moves whole frames over out and in instead.
	nc  net.Conn
	out chan<- []byte
	in  <-chan []byte

	writeMu sync.Mutex
	// hdr and bufs are the send scratch state, guarded by writeMu: the
	// frame header and payload go out as one gathered write (writev on
	// TCP), so a frame costs one syscall instead of two.
	hdr  [4]byte
	bufs net.Buffers

	readMu sync.Mutex

	// closed is closed by Close; a Pipe's two ends share it, so closing
	// either closes both.
	closeOnce *sync.Once
	closed    chan struct{}
}

// NewConn wraps an established net.Conn in message framing.
func NewConn(nc net.Conn) *Conn {
	return &Conn{nc: nc, closeOnce: new(sync.Once), closed: make(chan struct{})}
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
	if c.nc == nil {
		// The frame the receiver gets is this copy: the one allocation
		// a frame costs.
		frame := make([]byte, len(payload))
		copy(frame, payload)
		select {
		case c.out <- frame:
			return nil
		case <-c.closed:
			return ErrClosed
		}
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	binary.BigEndian.PutUint32(c.hdr[:], uint32(len(payload)))
	if len(payload) == 0 {
		if _, err := c.nc.Write(c.hdr[:]); err != nil {
			return fmt.Errorf("wire: writing frame header: %w", err)
		}
		return nil
	}
	// Header and payload leave in a single gathered write. bufs is
	// reused across sends (WriteTo consumes it), so the steady state
	// allocates nothing.
	c.bufs = append(c.bufs[:0], c.hdr[:], payload)
	if _, err := c.bufs.WriteTo(c.nc); err != nil {
		return fmt.Errorf("wire: writing %d-byte frame: %w", len(payload), err)
	}
	return nil
}

// Recv reads one framed message. It blocks until a full frame arrives, the
// connection closes (io.EOF), or an error occurs. A closed Pipe still
// delivers the frames queued before io.EOF. The frame is the caller's:
// a Pipe's is the copy Send made, a TCP connection's is read into a fresh
// buffer, and neither keeps a reference to it.
func (c *Conn) Recv() ([]byte, error) {
	if c.nc == nil {
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
	c.readMu.Lock()
	defer c.readMu.Unlock()

	var hdr [4]byte
	if _, err := io.ReadFull(c.nc, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: reading frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("receiving %d bytes: %w", n, ErrFrameTooLarge)
	}
	if n == 0 {
		return []byte{}, nil
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(c.nc, payload); err != nil {
		return nil, fmt.Errorf("wire: reading %d-byte frame: %w", n, err)
	}
	return payload, nil
}

// Close closes the connection; closing either end of a Pipe closes both.
// Pending Recv calls return io.EOF or an error. Close is idempotent.
func (c *Conn) Close() error {
	var err error
	c.closeOnce.Do(func() {
		close(c.closed)
		if c.nc != nil {
			err = c.nc.Close()
		}
	})
	return err
}

// A Listener accepts framed connections.
type Listener struct {
	nl net.Listener
}

// Listen opens a TCP listener on addr ("host:port"; use ":0" for an
// ephemeral port) that accepts framed connections.
func Listen(addr string) (*Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	return &Listener{nl: nl}, nil
}

// Accept waits for the next connection.
func (l *Listener) Accept() (*Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		return nil, fmt.Errorf("wire: accept: %w", err)
	}
	return NewConn(nc), nil
}

// Addr returns the listener's address, useful with ":0".
func (l *Listener) Addr() net.Addr { return l.nl.Addr() }

// Close stops the listener.
func (l *Listener) Close() error { return l.nl.Close() }

// Dial connects to a framed listener at addr with the given timeout.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return NewConn(nc), nil
}

// Serve accepts connections from l and invokes handle in a new goroutine
// per connection until l is closed. It returns the error that stopped the
// accept loop (net.ErrClosed after Close).
func Serve(l *Listener, handle func(*Conn)) error {
	for {
		c, err := l.Accept()
		if err != nil {
			return err
		}
		go handle(c)
	}
}
