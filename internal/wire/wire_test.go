package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	go func() {
		if err := a.Send([]byte("hello")); err != nil {
			t.Errorf("Send: %v", err)
		}
	}()
	got, err := b.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if string(got) != "hello" {
		t.Errorf("got %q, want %q", got, "hello")
	}
}

func TestEmptyFrame(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	go a.Send(nil)
	got, err := b.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if len(got) != 0 {
		t.Errorf("got %d bytes, want 0", len(got))
	}
}

func TestMultipleFramesPreserveBoundaries(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	frames := [][]byte{[]byte("one"), []byte("two-longer"), {0x00}, bytes.Repeat([]byte{0xab}, 1000)}
	go func() {
		for _, f := range frames {
			if err := a.Send(f); err != nil {
				t.Errorf("Send: %v", err)
				return
			}
		}
	}()
	for i, want := range frames {
		got, err := b.Recv()
		if err != nil {
			t.Fatalf("Recv frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame %d = %q, want %q", i, got, want)
		}
	}
}

func TestOversizeSendRejected(t *testing.T) {
	a, _ := Pipe()
	defer a.Close()
	err := a.Send(make([]byte, MaxFrameSize+1))
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestRecvAfterPeerClose(t *testing.T) {
	a, b := Pipe()
	a.Close()
	if _, err := b.Recv(); !errors.Is(err, io.EOF) {
		t.Errorf("err = %v, want io.EOF", err)
	}
	b.Close()
}

func TestSendAfterCloseFails(t *testing.T) {
	a, b := Pipe()
	defer b.Close()
	a.Close()
	if err := a.Send([]byte("x")); err == nil {
		t.Error("Send after Close succeeded")
	}
}

func TestCloseIdempotent(t *testing.T) {
	a, b := Pipe()
	defer b.Close()
	if err := a.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestPipeSendDoesNotWaitForReceiver: a Pipe queues pipeDepth frames
// with nobody receiving, each Send returning at once, and a sender may
// reuse its buffer as soon as Send returns.
func TestPipeSendDoesNotWaitForReceiver(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	sent := make(chan error, 1)
	go func() {
		buf := make([]byte, 3)
		for i := 0; i < pipeDepth; i++ {
			copy(buf, fmt.Sprintf("%03d", i))
			if err := a.Send(buf); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Send waited for a receiver with fewer than %d frames queued", pipeDepth)
	}
	for i := 0; i < pipeDepth; i++ {
		got, err := b.Recv()
		if want := fmt.Sprintf("%03d", i); err != nil || string(got) != want {
			t.Fatalf("frame %d = %q, %v; want %q", i, got, err, want)
		}
	}
}

// TestPipeCloseDeliversQueuedFrames: closing either end of a Pipe fails
// later Sends on both, and each end's Recv returns the frames already
// queued, in order, and then io.EOF. An oversized frame is refused and
// queues nothing.
func TestPipeCloseDeliversQueuedFrames(t *testing.T) {
	for _, closer := range []string{"sender", "receiver"} {
		t.Run(closer, func(t *testing.T) {
			a, b := Pipe()
			if err := a.Send(make([]byte, MaxFrameSize+1)); !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("oversized Send: %v, want ErrFrameTooLarge", err)
			}
			frames := []string{"one", "", "three"}
			for _, f := range frames {
				if err := a.Send([]byte(f)); err != nil {
					t.Fatal(err)
				}
			}
			if closer == "sender" {
				a.Close()
			} else {
				b.Close()
			}
			for _, c := range []*Conn{a, b} {
				if err := c.Send([]byte("late")); !errors.Is(err, ErrClosed) {
					t.Fatalf("Send after Close: %v, want ErrClosed", err)
				}
			}
			for i, want := range frames {
				got, err := b.Recv()
				if err != nil || string(got) != want || got == nil {
					t.Fatalf("frame %d after Close = %q, %v; want %q", i, got, err, want)
				}
			}
			for i := 0; i < 2; i++ {
				if got, err := b.Recv(); !errors.Is(err, io.EOF) {
					t.Fatalf("Recv past the queued frames = %q, %v; want io.EOF", got, err)
				}
			}
			if _, err := a.Recv(); !errors.Is(err, io.EOF) {
				t.Fatalf("Recv on the other end: %v, want io.EOF", err)
			}
		})
	}
}

func TestConcurrentSenders(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	const senders, perSender = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := a.Send([]byte(fmt.Sprintf("s%d-m%d", s, i))); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}(s)
	}
	go func() { wg.Wait(); a.Close() }()

	count := 0
	for {
		msg, err := b.Recv()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		// Frame must be intact (no interleaving).
		var s, i int
		if _, err := fmt.Sscanf(string(msg), "s%d-m%d", &s, &i); err != nil {
			t.Fatalf("corrupted frame %q", msg)
		}
		count++
	}
	if count != senders*perSender {
		t.Errorf("received %d frames, want %d", count, senders*perSender)
	}
}

// Property: any payload under the limit survives a round trip intact.
func TestQuickFrameRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	f := func(payload []byte) bool {
		errc := make(chan error, 1)
		go func() { errc <- a.Send(payload) }()
		got, err := b.Recv()
		if err != nil || <-errc != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPipeSendRecv(b *testing.B) {
	x, y := Pipe()
	defer x.Close()
	defer y.Close()
	payload := bytes.Repeat([]byte{0x5a}, 256)
	go func() {
		for {
			if _, err := y.Recv(); err != nil {
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.Send(payload); err != nil {
			b.Fatal(err)
		}
	}
}
