package client

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"kaas/internal/accel"
	"kaas/internal/kernels"
	"kaas/internal/wire"
)

// TestMuxConcurrentInvocations drives many concurrent invocations
// through a two-connection mux pool: every call must succeed, the
// client must stay on the multiplexed protocol, and the server must see
// only the shared connections (not one per request).
func TestMuxConcurrentInvocations(t *testing.T) {
	_, ln := startFaultyServer(t, nil)
	c := Dial(ln.Addr().String(), WithMux(2))
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

	if c.muxFallback.Load() {
		t.Error("client fell back to the legacy protocol against a mux-capable server")
	}
	if n := ln.Accepted(); n > 2 {
		t.Errorf("server accepted %d connections, want at most the 2 shared ones", n)
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

// TestMuxFallbackToLegacyServer points a mux-enabled client at a server
// that predates multiplexing (it rejects the hello with an error): the
// client must fall back to the one-request-per-connection protocol and
// still complete calls.
func TestMuxFallbackToLegacyServer(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer raw.Close()

	// A minimal legacy server: hellos are unknown frames, invokes echo.
	go func() {
		for {
			conn, err := raw.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					msg, err := wire.Read(conn)
					if err != nil {
						return
					}
					var reply *wire.Message
					switch msg.Type {
					case wire.MsgHello:
						reply = &wire.Message{Type: wire.MsgError, Header: wire.Header{
							Error: "unexpected message type hello",
						}}
					case wire.MsgInvoke:
						reply = &wire.Message{Type: wire.MsgResult, Header: wire.Header{
							Kernel: msg.Header.Kernel,
							Values: map[string]float64{"x": msg.Header.Params["x"]},
						}}
					default:
						reply = &wire.Message{Type: wire.MsgError, Header: wire.Header{Error: "unsupported"}}
					}
					if err := wire.Write(conn, reply); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	c := Dial(raw.Addr().String(), WithMux(2))
	defer c.Close()

	res, err := c.Invoke("echo", kernels.Params{"x": 7}, nil)
	if err != nil {
		t.Fatalf("Invoke via fallback: %v", err)
	}
	if res.Values["x"] != 7 {
		t.Errorf("x = %v, want 7", res.Values["x"])
	}
	if !c.muxFallback.Load() {
		t.Error("client did not record the legacy fallback")
	}

	// Subsequent calls skip the handshake entirely and keep working.
	if _, err := c.Invoke("echo", kernels.Params{"x": 8}, nil); err != nil {
		t.Fatalf("second Invoke via fallback: %v", err)
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
