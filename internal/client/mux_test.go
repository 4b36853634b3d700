package client

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kaas/internal/accel"
	"kaas/internal/kernels"
	"kaas/internal/wire"
)

// TestMuxConcurrentInvocations drives many concurrent invocations
// through a default client: every call must succeed and the server must
// see only the shared connections (not one per request).
func TestMuxConcurrentInvocations(t *testing.T) {
	_, ln := startFaultyServer(t, nil)
	c := Dial(ln.Addr().String())
	defer c.Close()

	if err := c.Register("matmul"); err != nil {
		t.Fatalf("Register: %v", err)
	}

	const workers = 24
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(seed float64) {
			defer wg.Done()
			res, err := c.Invoke("matmul", kernels.Params{"n": 32, "seed": seed}, nil)
			if err != nil {
				errs <- err
				return
			}
			if res.Values["checksum"] <= 0 {
				errs <- errors.New("zero checksum")
			}
		}(float64(i + 1))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent invoke: %v", err)
	}

	if n := ln.Accepted(); n > defaultMuxConns {
		t.Errorf("server accepted %d connections, want at most the %d shared ones", n, defaultMuxConns)
	}
}

// TestMuxCancelLeavesSiblingStreams cancels one in-flight stream on a
// single shared connection: the CANCEL frame must stop the server-side
// kernel, while sibling streams on the same connection keep working and
// the connection itself stays healthy.
func TestMuxCancelLeavesSiblingStreams(t *testing.T) {
	srv, ln := startFaultyServer(t, nil)
	if err := srv.Register(slowKernel{}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	c := Dial(ln.Addr().String(), WithMux(1))
	defer c.Close()
	if err := c.Register("matmul"); err != nil {
		t.Fatalf("Register: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slowErr := make(chan error, 1)
	go func() {
		_, err := c.InvokeContext(ctx, "slow", nil, nil)
		slowErr <- err
	}()
	waitUntil(t, 5*time.Second, func() bool { return srv.Stats().InFlight >= 1 }, "slow invocation in flight")

	// A sibling stream on the same connection completes while the slow
	// stream occupies it.
	if _, err := c.Invoke("matmul", kernels.Params{"n": 32, "seed": 1}, nil); err != nil {
		t.Fatalf("sibling Invoke while slow stream in flight: %v", err)
	}

	cancel()
	if err := <-slowErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled invoke err = %v, want context.Canceled", err)
	}
	// The CANCEL frame must reach the server and stop the kernel well
	// before the ~5 s it would otherwise burn.
	waitUntil(t, 2*time.Second, func() bool { return srv.Stats().InFlight == 0 }, "server-side cancellation")

	// The shared connection survived the per-stream cancel.
	if _, err := c.Invoke("matmul", kernels.Params{"n": 32, "seed": 2}, nil); err != nil {
		t.Fatalf("Invoke after cancel: %v", err)
	}
	if n := ln.Accepted(); n != 1 {
		t.Errorf("server accepted %d connections, want exactly the 1 shared one", n)
	}
}

// nanKernel answers with a scalar the JSON header cannot carry.
type nanKernel struct{}

func (nanKernel) Name() string     { return "nan" }
func (nanKernel) Kind() accel.Kind { return accel.GPU }
func (nanKernel) Cost(*kernels.Request) (kernels.Cost, error) {
	return kernels.Cost{Work: 1}, nil
}
func (nanKernel) Execute(*kernels.Request) (*kernels.Response, error) {
	return &kernels.Response{Values: map[string]float64{"bad": math.NaN()}}, nil
}

// TestUnencodableReplyFailsItsOwnStream: a kernel result the header
// cannot encode is that caller's typed, non-retryable error, whether its
// reply would have been written inline (the connection's only stream) or
// by the coalescing writer (a sibling in flight). It must neither close
// the shared connection under the sibling nor leave the caller waiting.
func TestUnencodableReplyFailsItsOwnStream(t *testing.T) {
	for _, tt := range []struct {
		name            string
		siblingInFlight bool
	}{{"inline", false}, {"writer queue", true}} {
		t.Run(tt.name, func(t *testing.T) {
			srv, ln := startFaultyServer(t, nil)
			sib := gateKernel{started: make(chan struct{}, 2), gate: make(chan struct{})}
			for _, k := range []kernels.Kernel{nanKernel{}, sib} {
				if err := srv.Register(k); err != nil {
					t.Fatalf("Register: %v", err)
				}
			}
			// A failed run must still let the parked kernel go, or the
			// server's Close waits on it forever.
			release := sync.OnceFunc(func() { close(sib.gate) })
			t.Cleanup(release)
			c := Dial(ln.Addr().String(), WithMux(1), WithRetries(3))
			defer c.Close()

			sibling := make(chan error, 1)
			go func() {
				_, err := c.Invoke("gate", nil, nil)
				sibling <- err
			}()
			if tt.siblingInFlight {
				<-sib.started
			} else {
				release()
				if err := <-sibling; err != nil {
					t.Fatalf("sibling Invoke: %v", err)
				}
			}

			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_, err := c.InvokeContext(ctx, "nan", nil, nil)
			var re *RemoteError
			if !errors.As(err, &re) || re.Code != wire.CodeInternal || re.Retryable {
				t.Fatalf("Invoke of a NaN result: err = %v, want a non-retryable %s RemoteError", err, wire.CodeInternal)
			}
			for _, want := range []string{`"nan"`, `"bad"`} {
				if !strings.Contains(re.Message, want) {
					t.Errorf("error %q does not name %s", re.Message, want)
				}
			}

			if tt.siblingInFlight {
				release()
				if err := <-sibling; err != nil {
					t.Errorf("sibling Invoke on the same connection: %v", err)
				}
			}
			if _, err := c.Invoke("gate", nil, nil); err != nil {
				t.Errorf("Invoke after the failed stream: %v", err)
			}
			if n := ln.Accepted(); n != 1 {
				t.Errorf("server accepted %d connections, want exactly the 1 shared one", n)
			}
			if m := c.Metrics(); m.Retries != 0 {
				t.Errorf("Retries = %d, want 0", m.Retries)
			}
		})
	}
}

// TestMuxOutOfOrderReplies checks the demultiplexer routes replies by
// StreamID, not arrival order: a scripted server answers the second
// request first.
func TestMuxOutOfOrderReplies(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer raw.Close()

	serverErr := make(chan error, 1)
	go func() {
		serverErr <- func() error {
			conn, err := raw.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			hello, err := wire.Read(conn)
			if err != nil || hello.Type != wire.MsgHello {
				return errors.New("expected hello")
			}
			if err := wire.Write(conn, &wire.Message{Version: wire.VersionMux, Type: wire.MsgHelloAck, Header: wire.Header{
				MuxVersion: wire.VersionMux, MaxStreams: 4,
			}}); err != nil {
				return err
			}
			// Collect both invokes before answering, then reply in
			// reverse order, echoing each request's "x" param so the
			// client can detect a misrouted reply.
			var reqs []*wire.Message
			for len(reqs) < 2 {
				msg, err := wire.Read(conn)
				if err != nil {
					return err
				}
				if msg.Type == wire.MsgInvoke {
					reqs = append(reqs, msg)
				}
			}
			for i := len(reqs) - 1; i >= 0; i-- {
				req := reqs[i]
				err := wire.Write(conn, &wire.Message{Version: wire.VersionMux, Type: wire.MsgResult, Header: wire.Header{
					Kernel:   req.Header.Kernel,
					Values:   map[string]float64{"x": req.Header.Params["x"]},
					StreamID: req.Header.StreamID,
				}})
				if err != nil {
					return err
				}
			}
			// Hold the connection open until the client is done.
			wire.Read(conn)
			return nil
		}()
	}()

	c := Dial(raw.Addr().String(), WithMux(1))
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, x := range []float64{1, 2} {
		wg.Add(1)
		go func(x float64) {
			defer wg.Done()
			res, err := c.Invoke("echo", kernels.Params{"x": x}, nil)
			if err != nil {
				errs <- err
				return
			}
			if res.Values["x"] != x {
				errs <- errors.New("reply routed to the wrong stream")
			}
		}(x)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("out-of-order invoke: %v", err)
	}
	c.Close()
	if err := <-serverErr; err != nil {
		t.Errorf("scripted server: %v", err)
	}
}

// TestLegacyPeerIsOneTypedError points a retrying client at servers that
// predate multiplexing — one rejects the hello as an unknown frame, one
// acks it at version 1: the call fails with a VersionError naming the
// version the server speaks, the connection is closed, and the retry
// policy never fires.
func TestLegacyPeerIsOneTypedError(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply *wire.Message
	}{
		{"hello-rejected", &wire.Message{Type: wire.MsgError, Header: wire.Header{Error: "unexpected message type hello"}}},
		{"acked-v1", &wire.Message{Type: wire.MsgHelloAck, Header: wire.Header{MuxVersion: wire.Version}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			defer raw.Close()

			// A stub legacy server: answers the first frame of every
			// connection, then reports whether the client hung up.
			var accepted atomic.Int32
			hungUp := make(chan error, 8)
			go func() {
				for {
					conn, err := raw.Accept()
					if err != nil {
						return
					}
					accepted.Add(1)
					go func() {
						defer conn.Close()
						if _, err := wire.Read(conn); err != nil {
							hungUp <- err
							return
						}
						if err := wire.Write(conn, tc.reply); err != nil {
							hungUp <- err
							return
						}
						_, err := wire.Read(conn)
						hungUp <- err
					}()
				}
			}()

			c := Dial(raw.Addr().String(), WithRetryPolicy(RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond}))
			defer c.Close()
			_, err = c.Invoke("echo", kernels.Params{"x": 7}, nil)
			var ve *VersionError
			if !errors.As(err, &ve) {
				t.Fatalf("Invoke against a legacy server: err = %v, want *VersionError", err)
			}
			if ve.Negotiated != wire.Version {
				t.Errorf("Negotiated = %d, want %d", ve.Negotiated, wire.Version)
			}
			if IsConnFailure(err) {
				t.Error("a version mismatch is classified as a connection failure")
			}
			select {
			case err := <-hungUp:
				if !errors.Is(err, io.EOF) {
					t.Errorf("server side of the refused connection: %v, want EOF", err)
				}
			case <-time.After(2 * time.Second):
				t.Error("client left the refused connection open")
			}
			if n := accepted.Load(); n != 1 {
				t.Errorf("server accepted %d connections, want exactly 1", n)
			}
			if m := c.Metrics(); m.Retries != 0 || m.Attempts != 0 {
				t.Errorf("Retries = %d, Attempts = %d, want 0 and 0 (no request was ever sent)", m.Retries, m.Attempts)
			}
		})
	}
}

// echoKernel returns its input payload and its "op" param.
type echoKernel struct{}

func (echoKernel) Name() string     { return "echo" }
func (echoKernel) Kind() accel.Kind { return accel.GPU }
func (echoKernel) Cost(*kernels.Request) (kernels.Cost, error) {
	return kernels.Cost{Work: 1}, nil
}
func (echoKernel) Execute(req *kernels.Request) (*kernels.Response, error) {
	return &kernels.Response{Values: map[string]float64{"op": req.Params["op"]}, Data: req.Data}, nil
}

// TestMuxLargeAndSmallFramesShareSocket runs eight streams over one shared
// connection, half with 256 KiB bodies (written from the caller's slice,
// not copied into the batch) and half header-only, with every frame going
// through the coalescing writers on both ends: each reply must carry its
// own request's bytes, and the connection must survive — a frame torn or
// reordered on the socket desynchronizes the peer's decoder and kills it.
func TestMuxLargeAndSmallFramesShareSocket(t *testing.T) {
	srv, ln := startFaultyServer(t, nil)
	for _, k := range []kernels.Kernel{slowKernel{}, echoKernel{}} {
		if err := srv.Register(k); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	c := Dial(ln.Addr().String(), WithMux(1))
	defer c.Close()

	// A slow stream in flight throughout keeps the inline write path shut
	// on both ends: the client sees a sibling in flight, the server a
	// second stream slot taken.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		c.InvokeContext(ctx, "slow", nil, nil)
	}()
	waitUntil(t, 5*time.Second, func() bool { return srv.Stats().InFlight >= 1 }, "slow invocation in flight")

	// A torn frame leaves a peer waiting for bytes that never come.
	echoCtx, echoCancel := context.WithTimeout(ctx, 30*time.Second)
	defer echoCancel()
	const streams, rounds = 8, 6
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				op := float64(s*rounds + r + 1)
				var data []byte
				if s%2 == 0 {
					data = make([]byte, 256<<10)
					for i := range data {
						data[i] = byte(i*7 + int(op))
					}
				}
				res, err := c.InvokeContext(echoCtx, "echo", kernels.Params{"op": op}, data)
				if err != nil {
					t.Errorf("stream %d round %d: %v", s, r, err)
					return
				}
				if res.Values["op"] != op {
					t.Errorf("stream %d round %d: reply carries op %v, want %v", s, r, res.Values["op"], op)
				}
				if !bytes.Equal(res.Data, data) {
					t.Errorf("stream %d round %d: reply body (%d bytes) is not the request's", s, r, len(res.Data))
				}
			}
		}(s)
	}
	wg.Wait()
	cancel()
	<-slowDone

	if n := ln.Accepted(); n != 1 {
		t.Errorf("server accepted %d connections, want the 1 shared one to survive", n)
	}
}
