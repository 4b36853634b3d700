package core

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"net"
	"testing"
	"time"

	"kaas/internal/accel"
	"kaas/internal/breaker"
	"kaas/internal/kernels"
	"kaas/internal/shm"
	"kaas/internal/vclock"
	"kaas/internal/wire"
)

// dataKernel echoes its request payload back as the result payload.
type dataKernel struct{}

func (dataKernel) Name() string     { return "data" }
func (dataKernel) Kind() accel.Kind { return accel.GPU }
func (dataKernel) Cost(*kernels.Request) (kernels.Cost, error) {
	return kernels.Cost{Work: 1e6, BytesIn: 1 << 10, BytesOut: 1 << 10, DeviceMemory: 1 << 16}, nil
}
func (dataKernel) Execute(req *kernels.Request) (*kernels.Response, error) {
	out := make([]byte, len(req.Data))
	copy(out, req.Data)
	return &kernels.Response{Values: map[string]float64{"bytes": float64(len(out))}, Data: out}, nil
}

// startTCPArena is startTCP with the out-of-band arena enabled.
func startTCPArena(t *testing.T, arena *shm.ArenaPool) (*Server, *TCPServer) {
	t.Helper()
	clock := vclock.Scaled(1000)
	host, err := accel.NewHost(clock, "node", accel.XeonE52698, accel.TeslaP100)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	t.Cleanup(host.Close)
	srv, err := New(Config{
		Clock:  clock,
		Host:   host,
		Logger: slog.New(slog.NewTextHandler(&syncBuffer{}, nil)),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Close)
	tcp, err := ServeTCP(srv, "127.0.0.1:0", WithArenaPool(arena))
	if err != nil {
		t.Fatalf("ServeTCP: %v", err)
	}
	t.Cleanup(func() { tcp.Close() })
	return srv, tcp
}

// leaseOverWire negotiates one arena lease on an upgraded connection and
// returns its ID.
func leaseOverWire(t *testing.T, conn net.Conn, bytes int64) uint64 {
	t.Helper()
	err := wire.Write(conn, &wire.Message{Version: wire.VersionMux, Type: wire.MsgLease, Header: wire.Header{
		LeaseBytes: bytes, StreamID: 1,
	}})
	if err != nil {
		t.Fatalf("write lease: %v", err)
	}
	ack, err := wire.Read(conn)
	if err != nil {
		t.Fatalf("read lease ack: %v", err)
	}
	if ack.Type != wire.MsgLeaseAck || ack.Header.LeaseID == 0 {
		t.Fatalf("lease ack = %s (%s), want granted lease", ack.Type, ack.Header.Error)
	}
	return ack.Header.LeaseID
}

// wantRevokeNotice reads the next frame and requires it to be the
// revocation notice for lease id.
func wantRevokeNotice(t *testing.T, conn net.Conn, id uint64) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(time.Second))
	defer conn.SetReadDeadline(time.Time{})
	msg, err := wire.Read(conn)
	if err != nil {
		t.Fatalf("no revoke notice: %v", err)
	}
	if msg.Type != wire.MsgLeaseRevoke || msg.Header.LeaseID != id {
		t.Fatalf("frame = %s for lease %d, want revoke notice for lease %d", msg.Type, msg.Header.LeaseID, id)
	}
}

// TestDisconnectMidLeaseReturnsBudget is the regression test for the
// arena-budget accounting on client disconnect: a connection that dies
// while holding leases must have every lease revoked and its bytes
// returned, or the arena budget leaks one window per crashed client.
func TestDisconnectMidLeaseReturnsBudget(t *testing.T) {
	arena := shm.NewArenaPool(1 << 20)
	_, tcp := startTCPArena(t, arena)

	conn := dialWire(t, tcp.Addr())
	muxHandshake(t, conn)
	first := leaseOverWire(t, conn, 4096)
	leaseOverWire(t, conn, 8192)
	if st := arena.Stats(); st.Active != 2 || st.Granted == 0 {
		t.Fatalf("arena before disconnect = %+v, want 2 active leases", st)
	}
	// A second connection must not be able to use (or free) the first
	// one's leases, and keeps its own across the other's disconnect.
	other := dialWire(t, tcp.Addr())
	muxHandshake(t, other)
	kept := leaseOverWire(t, other, 4096)

	conn.Close()
	waitFor(t, 2*time.Second, func() bool { return arena.Stats().Active == 1 }, "disconnected connection's leases to be revoked")
	st := arena.Stats()
	if want := int64(4096); st.Granted != want {
		t.Fatalf("arena after disconnect = %+v, want only the other connection's %d bytes granted", st, want)
	}
	if st.Revocations != 2 {
		t.Fatalf("revocations = %d, want 2", st.Revocations)
	}
	if _, ok := arena.Get(kept); !ok {
		t.Fatal("disconnect revoked a lease held by another connection")
	}
	if _, err := arena.Resolve(nil, first); !errors.Is(err, shm.ErrRevoked) {
		t.Fatalf("resolving the dead connection's lease = %v, want ErrRevoked", err)
	}

	// The returned budget must be grantable again.
	leaseOverWire(t, other, 8192)
}

// TestBreakerOpenRevokesLeases wires the breaker-transition hook through
// the arena: a device breaker opening revokes every outstanding lease
// and pushes a MsgLeaseRevoke notice to each owner.
func TestBreakerOpenRevokesLeases(t *testing.T) {
	arena := shm.NewArenaPool(1 << 20)
	srv, tcp := startTCPArena(t, arena)

	conn := dialWire(t, tcp.Addr())
	muxHandshake(t, conn)
	id := leaseOverWire(t, conn, 4096)

	srv.onBreakerTransition("gpu0", breaker.Closed, breaker.Open)

	wantRevokeNotice(t, conn, id)
	if st := arena.Stats(); st.Active != 0 || st.Granted != 0 {
		t.Fatalf("arena after breaker-open = %+v, want all leases revoked", st)
	}

	// Half-open and close transitions must not disturb fresh leases.
	leaseOverWire(t, conn, 4096)
	srv.onBreakerTransition("gpu0", breaker.Open, breaker.HalfOpen)
	srv.onBreakerTransition("gpu0", breaker.HalfOpen, breaker.Closed)
	if st := arena.Stats(); st.Active != 1 {
		t.Fatalf("arena after recovery transitions = %+v, want lease untouched", st)
	}
}

// TestDrainRevokesLeases covers the drain path: taking the endpoint out
// of rotation withdraws every lease with notification, so clients
// switch to in-band transfer before their connections close.
func TestDrainRevokesLeases(t *testing.T) {
	arena := shm.NewArenaPool(1 << 20)
	_, tcp := startTCPArena(t, arena)

	conn := dialWire(t, tcp.Addr())
	muxHandshake(t, conn)
	id := leaseOverWire(t, conn, 4096)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := tcp.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wantRevokeNotice(t, conn, id)
	if st := arena.Stats(); st.Active != 0 || st.Granted != 0 {
		t.Fatalf("arena after drain = %+v, want all leases revoked", st)
	}
}

// TestServeLeaseOverWire exercises the lease negotiation frames over a
// real mux connection: grant, bounded ack, and stale-lease invoke
// answered with the retryable LEASE_REVOKED code.
func TestServeLeaseOverWire(t *testing.T) {
	arena := shm.NewArenaPool(1 << 20)
	srv, tcp := startTCPArena(t, arena)
	if err := srv.Register(dataKernel{}); err != nil {
		t.Fatalf("Register: %v", err)
	}

	conn := dialWire(t, tcp.Addr())
	muxHandshake(t, conn)

	err := wire.Write(conn, &wire.Message{Version: wire.VersionMux, Type: wire.MsgLease, Header: wire.Header{
		LeaseBytes: 1 << 12, StreamID: 1,
	}})
	if err != nil {
		t.Fatalf("write lease: %v", err)
	}
	ack, err := wire.Read(conn)
	if err != nil {
		t.Fatalf("read lease ack: %v", err)
	}
	if ack.Type != wire.MsgLeaseAck || ack.Header.LeaseID == 0 {
		t.Fatalf("lease ack = %s (%s), want granted lease", ack.Type, ack.Header.Error)
	}
	if ack.Header.LeaseBytes < 1<<12 {
		t.Fatalf("granted window = %d bytes, want >= %d", ack.Header.LeaseBytes, 1<<12)
	}

	// Fill the window directly (both endpoints map the same pool here)
	// and invoke by handle.
	l, ok := arena.Get(ack.Header.LeaseID)
	if !ok {
		t.Fatal("granted lease not resolvable in the shared arena")
	}
	payload := bytes.Repeat([]byte{0xAB}, 1<<10)
	copy(l.Bytes(), payload)
	err = wire.Write(conn, &wire.Message{Version: wire.VersionMux, Type: wire.MsgInvoke, Header: wire.Header{
		Kernel:   "data",
		StreamID: 2,
		LeaseID:  ack.Header.LeaseID,
		LeaseLen: int64(len(payload)),
	}})
	if err != nil {
		t.Fatalf("write invoke: %v", err)
	}
	res, err := wire.Read(conn)
	if err != nil {
		t.Fatalf("read result: %v", err)
	}
	if res.Type != wire.MsgResult {
		t.Fatalf("reply = %s (%s), want result", res.Type, res.Header.Error)
	}
	if res.Header.LeaseResultLen != int64(len(payload)) {
		t.Fatalf("result length in window = %d, want %d", res.Header.LeaseResultLen, len(payload))
	}
	if !bytes.Equal(l.Bytes()[:len(payload)], payload) {
		t.Fatal("result window does not hold the echoed payload")
	}

	// Revoke behind the client's back: the same handle must now be
	// answered with the retryable stale-lease code, not silently served.
	arena.Revoke(ack.Header.LeaseID)
	err = wire.Write(conn, &wire.Message{Version: wire.VersionMux, Type: wire.MsgInvoke, Header: wire.Header{
		Kernel:   "data",
		StreamID: 3,
		LeaseID:  ack.Header.LeaseID,
		LeaseLen: 8,
	}})
	if err != nil {
		t.Fatalf("write stale invoke: %v", err)
	}
	stale, err := wire.Read(conn)
	if err != nil {
		t.Fatalf("read stale reply: %v", err)
	}
	if stale.Type != wire.MsgError || stale.Header.Code != wire.CodeLeaseRevoked {
		t.Fatalf("stale-lease reply = %s code %q, want error %q",
			stale.Type, stale.Header.Code, wire.CodeLeaseRevoked)
	}
}

// TestServeLeaseDeniedWithoutArena verifies a server without an arena
// answers lease negotiation with a permanent denial instead of an
// unexpected-type error.
func TestServeLeaseDeniedWithoutArena(t *testing.T) {
	_, tcp, _ := startTCP(t)
	conn := dialWire(t, tcp.Addr())
	muxHandshake(t, conn)

	err := wire.Write(conn, &wire.Message{Version: wire.VersionMux, Type: wire.MsgLease, Header: wire.Header{
		LeaseBytes: 4096, StreamID: 1,
	}})
	if err != nil {
		t.Fatalf("write lease: %v", err)
	}
	ack, err := wire.Read(conn)
	if err != nil {
		t.Fatalf("read lease ack: %v", err)
	}
	if ack.Type != wire.MsgLeaseAck || ack.Header.LeaseID != 0 || ack.Header.Code != wire.CodeInternal {
		t.Fatalf("denial = %s lease %d code %q, want lease ack with no lease and code %q",
			ack.Type, ack.Header.LeaseID, ack.Header.Code, wire.CodeInternal)
	}
}
