package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"kaas/internal/accel"
	"kaas/internal/kernels"
	"kaas/internal/shm"
	"kaas/internal/vclock"
	"kaas/internal/wire"
)

// syncBuffer is a goroutine-safe log sink.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// slowKernel burns enough modeled device work that, at the test clock
// scale, an invocation takes seconds of wall time unless cancelled.
type slowKernel struct{}

func (slowKernel) Name() string     { return "slow" }
func (slowKernel) Kind() accel.Kind { return accel.GPU }
func (slowKernel) Cost(*kernels.Request) (kernels.Cost, error) {
	// 8e11 work/s on a Tesla P100 × 1000 scale: ~5 s of wall time.
	return kernels.Cost{Work: 4e15}, nil
}
func (slowKernel) Execute(*kernels.Request) (*kernels.Response, error) {
	return &kernels.Response{Values: map[string]float64{"done": 1}}, nil
}

// startTCP brings up a server over TCP with a log capture, returning the
// core server, TCP endpoint, and log buffer.
func startTCP(t *testing.T) (*Server, *TCPServer, *syncBuffer) {
	t.Helper()
	clock := vclock.Scaled(1000)
	host, err := accel.NewHost(clock, "node", accel.XeonE52698, accel.TeslaP100)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	t.Cleanup(host.Close)
	logs := &syncBuffer{}
	srv, err := New(Config{
		Clock:  clock,
		Host:   host,
		Logger: slog.New(slog.NewTextHandler(logs, nil)),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Close)
	tcp, err := ServeTCP(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeTCP: %v", err)
	}
	t.Cleanup(func() { tcp.Close() })
	return srv, tcp, logs
}

// dialWire opens a raw protocol connection.
func dialWire(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// waitFor polls cond until it holds or the wall deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestInvokeRejectsExpiredDeadline(t *testing.T) {
	srv, tcp, _ := startTCP(t)
	if err := srv.Register(slowKernel{}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	conn := dialWire(t, tcp.Addr())
	err := wire.Write(conn, &wire.Message{
		Type: wire.MsgInvoke,
		Header: wire.Header{
			Kernel:        "slow",
			DeadlineNanos: time.Now().Add(-time.Second).UnixNano(),
		},
	})
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	start := time.Now()
	reply, err := wire.Read(conn)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if reply.Type != wire.MsgError {
		t.Fatalf("reply = %s, want error", reply.Type)
	}
	if !strings.Contains(reply.Header.Error, "deadline") {
		t.Errorf("error %q does not mention the deadline", reply.Header.Error)
	}
	// Rejected before reaching a runner: no cold start, nothing in
	// flight, and the rejection must be prompt (the slow kernel takes
	// seconds when it runs).
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("rejection took %v", elapsed)
	}
	st := srv.Stats()
	if st.ColdStarts != 0 || st.InFlight != 0 {
		t.Errorf("Stats = %+v, want no cold starts and nothing in flight", st)
	}
}

func TestClientDisconnectCancelsInvocation(t *testing.T) {
	srv, tcp, logs := startTCP(t)
	if err := srv.Register(slowKernel{}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	conn := dialWire(t, tcp.Addr())
	if err := wire.Write(conn, &wire.Message{
		Type:   wire.MsgInvoke,
		Header: wire.Header{Kernel: "slow"},
	}); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Wait until the invocation is in flight, then vanish.
	waitFor(t, 2*time.Second, func() bool { return srv.Stats().InFlight == 1 }, "invocation in flight")
	conn.Close()

	// The kernel runs ~5 s of wall time if nobody cancels it; the
	// disconnect watcher must cancel its context well before that.
	start := time.Now()
	waitFor(t, 2*time.Second, func() bool { return srv.Stats().InFlight == 0 }, "in-flight count to drain")
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancellation took %v after disconnect", elapsed)
	}
	waitFor(t, 2*time.Second, func() bool {
		return strings.Contains(logs.String(), "invocation cancelled")
	}, "cancellation log entry")

	// The server must keep serving new work afterwards.
	conn2 := dialWire(t, tcp.Addr())
	if err := wire.Write(conn2, &wire.Message{
		Type:   wire.MsgRegister,
		Header: wire.Header{Kernel: "matmul"},
	}); err != nil {
		t.Fatalf("register after disconnect: %v", err)
	}
	reply, err := wire.Read(conn2)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if reply.Type != wire.MsgRegistered {
		t.Fatalf("reply = %s, want registered", reply.Type)
	}
	if err := wire.Write(conn2, &wire.Message{
		Type:   wire.MsgInvoke,
		Header: wire.Header{Kernel: "matmul", Params: map[string]float64{"n": 32}},
	}); err != nil {
		t.Fatalf("invoke after disconnect: %v", err)
	}
	reply, err = wire.Read(conn2)
	if err != nil {
		t.Fatalf("read result: %v", err)
	}
	if reply.Type != wire.MsgResult {
		t.Fatalf("reply = %s (%s), want result", reply.Type, reply.Header.Error)
	}
}

func TestReplyWriteFailureIsLoggedAndCloses(t *testing.T) {
	srv, tcp, logs := startTCP(t)
	if err := srv.Register(slowKernel{}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	conn := dialWire(t, tcp.Addr())
	if err := wire.Write(conn, &wire.Message{
		Type:   wire.MsgInvoke,
		Header: wire.Header{Kernel: "slow"},
	}); err != nil {
		t.Fatalf("write: %v", err)
	}
	waitFor(t, 2*time.Second, func() bool { return srv.Stats().InFlight == 1 }, "invocation in flight")
	// Close with a pending RST so the server's reply write fails
	// outright instead of landing in the kernel socket buffer.
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	conn.Close()
	waitFor(t, 4*time.Second, func() bool {
		s := logs.String()
		return strings.Contains(s, "invocation cancelled") || strings.Contains(s, "reply write failed")
	}, "disconnect handling log entry")
	waitFor(t, 2*time.Second, func() bool { return srv.Stats().InFlight == 0 }, "in-flight drain")
}

func TestDeadlineCancelsMidFlightKernel(t *testing.T) {
	srv, tcp, _ := startTCP(t)
	if err := srv.Register(slowKernel{}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	conn := dialWire(t, tcp.Addr())
	// A live deadline far shorter than the kernel's ~5 s of wall time.
	if err := wire.Write(conn, &wire.Message{
		Type: wire.MsgInvoke,
		Header: wire.Header{
			Kernel:        "slow",
			DeadlineNanos: time.Now().Add(300 * time.Millisecond).UnixNano(),
		},
	}); err != nil {
		t.Fatalf("write: %v", err)
	}
	start := time.Now()
	reply, err := wire.Read(conn)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if reply.Type != wire.MsgError {
		t.Fatalf("reply = %s, want error", reply.Type)
	}
	if !strings.Contains(reply.Header.Error, "deadline") &&
		!strings.Contains(reply.Header.Error, "context") {
		t.Errorf("error %q does not mention cancellation", reply.Header.Error)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline enforcement took %v", elapsed)
	}
	waitFor(t, 2*time.Second, func() bool { return srv.Stats().InFlight == 0 }, "in-flight drain")
}

func TestServeTCPListenerNil(t *testing.T) {
	if _, err := ServeTCPListener(nil, nil, nil); err == nil {
		t.Error("nil listener accepted")
	}
}

func TestPipelinedSecondRequestSurvivesWatcher(t *testing.T) {
	srv, tcp, _ := startTCP(t)
	if err := srv.Register(kernels.NewMonteCarlo()); err != nil {
		t.Fatalf("Register: %v", err)
	}
	conn := dialWire(t, tcp.Addr())
	// Send two invocations back to back: while the first is served, the
	// disconnect watcher may read the first byte of the second frame —
	// which must be pushed back, not lost.
	for i := 0; i < 2; i++ {
		if err := wire.Write(conn, &wire.Message{
			Type:   wire.MsgInvoke,
			Header: wire.Header{Kernel: "mci", Params: map[string]float64{"n": 5000, "seed": float64(i)}},
		}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i := 0; i < 2; i++ {
		reply, err := wire.Read(conn)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if reply.Type != wire.MsgResult {
			t.Fatalf("reply %d = %s (%s), want result", i, reply.Type, reply.Header.Error)
		}
	}
}

// TestMonteCarloName guards the kernel name the pipelining test relies on.
func TestMonteCarloName(t *testing.T) {
	if name := kernels.NewMonteCarlo().Name(); name != "mci" {
		t.Fatalf("Monte Carlo kernel is %q, update the test", name)
	}
}

// TestLegacyPeerMapsToDefaultTenant: a pre-tenant peer cannot send the
// Tenant header field, and a tenant-aware peer may send any name. Both
// must land in per-tenant accounting under deterministic keys — the
// untagged invocation under "default", never under "" — so mixed-version
// clusters do not split queues and metrics between two spellings of the
// same tenant.
func TestLegacyPeerMapsToDefaultTenant(t *testing.T) {
	srv, tcp, _ := startTCP(t)
	if err := srv.Register(kernels.NewMonteCarlo()); err != nil {
		t.Fatalf("Register: %v", err)
	}
	conn := dialWire(t, tcp.Addr())
	// A frame from a pre-tenant peer: no Tenant field at all.
	legacy := &wire.Message{
		Version: wire.VersionMux,
		Type:    wire.MsgInvoke,
		Header:  wire.Header{Kernel: "mci", Params: map[string]float64{"n": 5000}, StreamID: 1},
	}
	// A tenant-aware frame from the same connection.
	tagged := &wire.Message{
		Version: wire.VersionMux,
		Type:    wire.MsgInvoke,
		Header:  wire.Header{Kernel: "mci", Params: map[string]float64{"n": 5000}, StreamID: 2, Tenant: "acme"},
	}
	for i, msg := range []*wire.Message{legacy, tagged} {
		if err := wire.Write(conn, msg); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		reply, err := wire.Read(conn)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if reply.Type != wire.MsgResult {
			t.Fatalf("reply %d = %s (%s), want result", i, reply.Type, reply.Header.Error)
		}
	}
	st := srv.Stats()
	if _, ok := st.PerTenant[""]; ok {
		t.Error(`Stats.PerTenant contains the "" key — legacy tenants are not normalized`)
	}
	if got := st.PerTenant[DefaultTenant].Admitted; got != 1 {
		t.Errorf("default tenant admitted %d, want 1 (the untagged frame)", got)
	}
	if got := st.PerTenant["acme"].Admitted; got != 1 {
		t.Errorf("tenant acme admitted %d, want 1 (the tagged frame)", got)
	}
}

// TestErrorCode pins the one error → code table: every sentinel the
// platform defines, wrapped as callers see it, and the lease errors.
func TestErrorCode(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{ErrOverloaded, wire.CodeOverloaded},
		{ErrDraining, wire.CodeUnavailable},
		{ErrServerClosed, wire.CodeUnavailable},
		{ErrUnavailable, wire.CodeUnavailable},
		{fmt.Errorf("core: failover exhausted: %w", accel.ErrDeviceFailed), wire.CodeUnavailable},
		{accel.ErrContextReleased, wire.CodeUnavailable},
		{shm.ErrNoSpace, wire.CodeUnavailable},
		{context.DeadlineExceeded, wire.CodeDeadlineExceeded},
		{context.Canceled, wire.CodeDeadlineExceeded},
		{errLeaseRevoked, wire.CodeLeaseRevoked},
		{ErrUnknownKernel, wire.CodeUnknownKernel},
		{ErrNoDevice, wire.CodeUnknownKernel},
		{shm.ErrUnknownLease, wire.CodeInternal},
		{fmt.Errorf("%w: lease 3 holds 8 bytes", errLeaseWindow), wire.CodeInternal},
		{errNoArena, wire.CodeInternal},
		{ErrAlreadyRegistered, wire.CodeInternal},
		{errors.New("kernel: bad n"), wire.CodeInternal},
	} {
		if got := ErrorCode(fmt.Errorf("wrapped: %w", tc.err)); got != tc.want {
			t.Errorf("ErrorCode(%v) = %s, want %s", tc.err, got, tc.want)
		}
	}
}
