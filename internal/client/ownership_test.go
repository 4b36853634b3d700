package client

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"kaas/internal/kernels"
	"kaas/internal/wire"
)

// A race build scrubs every message wire.Release takes back to this
// kernel name and stream ID, so a frame encoded from a released struct
// carries them.
const (
	releasedKernel   = "wire: released"
	releasedStreamID = ^uint64(0)
)

// recordedFrame is what the recording server decoded from one frame.
type recordedFrame struct {
	typ    wire.MsgType
	kernel string
	stream uint64
	x      float64
}

// recordingServer speaks just enough of protocol version 2 to answer
// invokes: it acks every hello, answers each invoke with its own "x"
// param echoed on its own stream, and records every frame it decodes.
// An invoke carrying the param "stall" is answered, and then the
// connection is not read again until resume is closed. When killAt is
// positive the first connection is closed, unanswered, on reading its
// killAt-th invoke.
type recordingServer struct {
	ln     net.Listener
	killAt int
	resume chan struct{}
	done   chan struct{} // closed when the test ends

	mu       sync.Mutex
	conns    []net.Conn
	frames   []recordedFrame
	failures []error
}

func startRecordingServer(t *testing.T, killAt int) *recordingServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := &recordingServer{ln: ln, killAt: killAt, resume: make(chan struct{}), done: make(chan struct{})}
	var wg sync.WaitGroup
	t.Cleanup(func() {
		close(s.done)
		ln.Close()
		s.mu.Lock()
		for _, conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		wg.Wait()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			idx := len(s.conns)
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				s.serve(conn, idx)
			}()
		}
	}()
	return s
}

func (s *recordingServer) fail(err error) {
	s.mu.Lock()
	s.failures = append(s.failures, err)
	s.mu.Unlock()
}

func (s *recordingServer) serve(conn net.Conn, idx int) {
	if hello, err := wire.Read(conn); err != nil || hello.Type != wire.MsgHello {
		s.fail(fmt.Errorf("conn %d: first frame is not a hello (err %v)", idx, err))
		return
	}
	ack := &wire.Message{Version: wire.VersionMux, Type: wire.MsgHelloAck, Header: wire.Header{MuxVersion: wire.VersionMux, MaxStreams: 64}}
	if wire.Write(conn, ack) != nil {
		return
	}
	invokes := 0
	for {
		msg, err := wire.Read(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.fail(fmt.Errorf("conn %d: decode: %w", idx, err))
			}
			return
		}
		s.mu.Lock()
		s.frames = append(s.frames, recordedFrame{msg.Type, msg.Header.Kernel, msg.Header.StreamID, msg.Header.Params["x"]})
		s.mu.Unlock()
		if msg.Type != wire.MsgInvoke {
			continue
		}
		invokes++
		if idx == 0 && invokes == s.killAt {
			return
		}
		_, stall := msg.Header.Params["stall"]
		reply := &wire.Message{Version: wire.VersionMux, Type: wire.MsgResult, Header: wire.Header{
			Kernel:   msg.Header.Kernel,
			Values:   map[string]float64{"x": msg.Header.Params["x"]},
			StreamID: msg.Header.StreamID,
		}}
		if wire.Write(conn, reply) != nil {
			return
		}
		if stall {
			select {
			case <-s.resume:
			case <-s.done:
				return
			}
		}
	}
}

// invokesWith counts the recorded invoke frames whose x is in xs.
func (s *recordingServer) invokesWith(xs map[float64]bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, f := range s.frames {
		if f.typ == wire.MsgInvoke && xs[f.x] {
			n++
		}
	}
	return n
}

// check fails t for every frame the server could not decode and every
// decoded frame that is not one of the client's own invokes or cancels.
func (s *recordingServer) check(t *testing.T) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, err := range s.failures {
		t.Errorf("recording server: %v", err)
	}
	for _, f := range s.frames {
		switch {
		case f.kernel == releasedKernel || f.stream == releasedStreamID:
			t.Errorf("frame %+v was encoded from a released message", f)
		case f.typ == wire.MsgInvoke && f.kernel != "own":
			t.Errorf("invoke frame %+v names kernel %q, want %q", f, f.kernel, "own")
		case f.typ != wire.MsgInvoke && f.typ != wire.MsgCancel:
			t.Errorf("frame %+v is a %s, not an invoke or a cancel", f, f.typ)
		}
	}
	if len(s.frames) == 0 {
		t.Error("the recording server decoded no frame")
	}
}

// ownCall invokes the recording server with x and checks that the reply
// is this call's own.
func ownCall(ctx context.Context, c *Client, x float64, data []byte) error {
	res, err := c.InvokeContext(ctx, "own", kernels.Params{"x": x}, data)
	if err != nil {
		return err
	}
	if res.Values["x"] != x {
		return fmt.Errorf("call %v got the reply of call %v", x, res.Values["x"])
	}
	return nil
}

// TestClientRequestOwnership: a caller's request struct is its own from
// start to finish, so it may be released whatever the outcome. Every
// frame the server decodes must be one a live request produced — never a
// released struct, which a race build scrubs to a sentinel — and every
// result its own call's. Three paths put a request near another
// goroutine: the writer queue, a call abandoned while its frame is still
// queued, and the resend after a stale connection.
func TestClientRequestOwnership(t *testing.T) {
	t.Run("queued writer", func(t *testing.T) {
		s := startRecordingServer(t, 0)
		c := Dial(s.ln.Addr().String(), WithMux(1))
		defer c.Close()
		const callers, calls = 16, 40
		// A frame lost to a reused struct would leave its call waiting
		// forever; the deadline turns that into a failure.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		var wg sync.WaitGroup
		errs := make(chan error, callers*calls)
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for j := 0; j < calls; j++ {
					if err := ownCall(ctx, c, float64(i*calls+j), nil); err != nil {
						errs <- err
					}
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		s.check(t)
	})

	t.Run("abandoned while queued", func(t *testing.T) {
		s := startRecordingServer(t, 0)
		c := Dial(s.ln.Addr().String(), WithMux(1))
		defer c.Close()
		if _, err := c.Invoke("own", kernels.Params{"x": -1, "stall": 1}, nil); err != nil {
			t.Fatalf("warm-up call: %v", err)
		}
		// The server reads nothing more until resume. A 16 MiB body is
		// more than the socket buffers hold, so the blocker's inline write
		// keeps the socket, and every frame after it waits in the writer
		// queue.
		blocked := make(chan error, 1)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		go func() { blocked <- ownCall(ctx, c, -2, make([]byte, 16<<20)) }()
		time.Sleep(20 * time.Millisecond)

		const callers = 8
		abandoned := make(map[float64]bool, callers)
		var wg sync.WaitGroup
		for i := 0; i < callers; i++ {
			abandoned[float64(i)] = true
			wg.Add(1)
			go func(x float64) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				defer cancel()
				if err := ownCall(ctx, c, x, nil); !errors.Is(err, context.DeadlineExceeded) {
					t.Errorf("call %v: err = %v, want the deadline", x, err)
				}
			}(float64(i))
		}
		// Every abandoned caller has returned, and released its request,
		// before its frame leaves the queue.
		wg.Wait()
		close(s.resume)
		if err := <-blocked; err != nil {
			t.Errorf("blocking call: %v", err)
		}
		waitUntil(t, 5*time.Second, func() bool { return s.invokesWith(abandoned) == callers },
			"the abandoned calls' frames")
		s.check(t)
	})

	t.Run("stale connection resend", func(t *testing.T) {
		for round := 0; round < 5; round++ {
			// The shared connection dies, unanswered, on the first invoke
			// after the warm-up: every call in flight on it resends on a
			// replacement.
			s := startRecordingServer(t, 2)
			c := Dial(s.ln.Addr().String(), WithMux(1))
			if _, err := c.Invoke("own", kernels.Params{"x": -1}, nil); err != nil {
				t.Fatalf("warm-up call: %v", err)
			}
			const callers = 8
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func(x float64) {
					defer wg.Done()
					if err := ownCall(ctx, c, x, nil); err != nil {
						t.Errorf("round %d: %v", round, err)
					}
				}(float64(i))
			}
			wg.Wait()
			cancel()
			if m := c.Metrics(); m.StaleConns == 0 {
				t.Errorf("round %d: no call resent after the connection died (%+v)", round, m)
			}
			c.Close()
			s.check(t)
			if t.Failed() {
				break
			}
		}
	})
}
