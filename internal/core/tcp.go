package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"kaas/internal/accel"
	"kaas/internal/breaker"
	"kaas/internal/shm"
	"kaas/internal/wire"
)

// ErrorCode maps an error to the wire protocol's machine-readable code.
// It is the only map from the platform's errors to codes: every error
// header the endpoint sends is built from it (errHeader), and in-process
// callers classify through it too, so the two transports cannot disagree.
// What a code means for retrying is wire.Retryable's to say.
func ErrorCode(err error) string {
	switch {
	case errors.Is(err, ErrOverloaded):
		return wire.CodeOverloaded
	case errors.Is(err, ErrDraining), errors.Is(err, ErrServerClosed),
		errors.Is(err, ErrUnavailable), errors.Is(err, accel.ErrDeviceFailed),
		errors.Is(err, accel.ErrContextReleased), errors.Is(err, shm.ErrNoSpace):
		return wire.CodeUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return wire.CodeDeadlineExceeded
	case errors.Is(err, errLeaseRevoked):
		return wire.CodeLeaseRevoked
	case errors.Is(err, ErrUnknownKernel), errors.Is(err, ErrNoDevice):
		return wire.CodeUnknownKernel
	default:
		// Including the lease client bugs resending cannot help: a handle
		// this connection never held (shm.ErrUnknownLease), a length
		// outside its window (errLeaseWindow), a lease asked of a server
		// without an arena (errNoArena).
		return wire.CodeInternal
	}
}

// errHeader is the header of every error the endpoint sends.
func errHeader(err error) wire.Header {
	return wire.Header{Error: err.Error(), Code: ErrorCode(err)}
}

// aLongTimeAgo is a non-zero past deadline used to unblock pending reads.
var aLongTimeAgo = time.Unix(1, 0)

// TCPServer exposes a Server over the KaaS wire protocol — the
// request/response invocation endpoint of Fig. 5. Clients register
// kernels from the built-in kernel library by name (standing in for code
// upload) and invoke them with in-band payloads or out-of-band arena
// lease handles (WithArenaPool).
//
// The server is deadline-aware: invocations carrying an expired
// wire.Header.DeadlineNanos are rejected before touching a runner, a
// live deadline bounds the kernel's context, and a client that
// disconnects mid-invocation cancels the kernel's context so the runner
// stops burning device time for an answer nobody will read.
type TCPServer struct {
	srv *Server
	ln  net.Listener
	// arena backs the zero-copy out-of-band data plane (WithArenaPool) and
	// is the only record of which connection owns which lease; nil when
	// the data plane is off.
	arena *shm.ArenaPool

	mu           sync.Mutex
	conns        map[net.Conn]struct{}
	draining     bool
	closed       bool
	streamsLimit int
	control      ControlHandler
	wg           sync.WaitGroup
}

// ControlHandler serves cluster control-plane frames (MsgControl): it
// receives the request payload and returns the reply payload carried on
// MsgControlAck. A returned error reaches the peer as MsgError.
type ControlHandler func(payload []byte) ([]byte, error)

// SetControlHandler installs the cluster control-plane handler. With no
// handler installed, MsgControl frames are answered with an error, which
// lets a joining node discover that a peer is not clustered.
func (t *TCPServer) SetControlHandler(h ControlHandler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.control = h
}

func (t *TCPServer) controlHandler() ControlHandler {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.control
}

// SetMaxConnStreams bounds how many concurrent streams one multiplexed
// connection may have in flight (default DefaultMaxConnStreams). Set it
// before clients connect; existing sessions keep the bound they
// negotiated.
func (t *TCPServer) SetMaxConnStreams(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.streamsLimit = n
}

// maxConnStreams returns the per-connection stream bound.
func (t *TCPServer) maxConnStreams() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.streamsLimit > 0 {
		return t.streamsLimit
	}
	return DefaultMaxConnStreams
}

// TCPOption configures a TCPServer at construction.
type TCPOption func(*TCPServer)

// WithArenaPool enables the zero-copy out-of-band data plane: clients
// negotiate leases over windows of this pooled
// tensor arena and move payloads by handle instead of copying them
// through the wire protocol. The pool must be the same instance the
// clients map (same host). Leases are revoked — their bytes returned to
// the pool's budget — on connection close, drain, and breaker-open.
func WithArenaPool(p *shm.ArenaPool) TCPOption {
	return func(t *TCPServer) { t.arena = p }
}

// ServeTCP starts accepting KaaS protocol connections on addr
// (e.g. "127.0.0.1:0").
func ServeTCP(s *Server, addr string, opts ...TCPOption) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("core: listen: %w", err)
	}
	return ServeTCPListener(s, ln, opts...)
}

// ServeTCPListener serves the KaaS protocol on a caller-provided
// listener. Test and benchmark harnesses use it to interpose
// fault-injecting listeners (see internal/faults) between clients and
// the server.
func ServeTCPListener(s *Server, ln net.Listener, opts ...TCPOption) (*TCPServer, error) {
	if ln == nil {
		return nil, fmt.Errorf("core: nil listener")
	}
	t := &TCPServer{
		srv:   s,
		ln:    ln,
		conns: make(map[net.Conn]struct{}),
	}
	for _, o := range opts {
		o(t)
	}
	if t.arena != nil {
		s.setArena(t.arena)
		// A breaker opening means the device is shedding everything: its
		// queued tensors will not be consumed, so leased arena memory is
		// reclaimed immediately rather than pinned behind a dead device.
		// Clients holding revoked leases fall back to in-band transfer.
		s.OnBreakerTransition(func(dev string, _, to breaker.State) {
			if to != breaker.Open {
				return
			}
			if n := t.revokeLeases(); n > 0 {
				s.Logger().Warn("revoked arena leases on breaker open",
					"device", dev, "leases", n)
			}
		})
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the listener address.
func (t *TCPServer) Addr() string { return t.ln.Addr().String() }

// Close stops the listener and all connections, then waits for handler
// goroutines to exit.
func (t *TCPServer) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()

	err := t.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	t.wg.Wait()
	return err
}

// Drain gracefully shuts the endpoint down: the listener stops accepting,
// idle connections are unblocked and closed, and connections with a
// request in flight finish it (and get their reply) before closing. If
// ctx expires first the remaining connections are closed hard and the
// context error returned.
func (t *TCPServer) Drain(ctx context.Context) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.draining = true
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()

	t.ln.Close() // stop accepting
	// Revoke every arena lease up front: draining connections may still
	// finish their in-flight invocation, but new payloads go in-band, and
	// the arena's bytes are back in the budget before the endpoint closes.
	if t.arena != nil {
		if n := t.revokeLeases(); n > 0 {
			t.srv.Logger().Info("revoked arena leases for drain", "leases", n)
		}
	}
	// Poke every session out of its blocking read: the expired read
	// deadline fails the read, and because the server is draining the
	// session lets its in-flight requests finish and reply, then closes.
	for _, c := range conns {
		c.SetReadDeadline(aLongTimeAgo)
	}

	done := make(chan struct{})
	go func() {
		t.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		t.mu.Lock()
		t.closed = true
		t.mu.Unlock()
		return nil
	case <-ctx.Done():
		t.Close()
		return ctx.Err()
	}
}

func (t *TCPServer) isDraining() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.draining
}

func (t *TCPServer) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.conns[conn] = struct{}{}
		if t.draining {
			// Raced with Drain's snapshot: make sure this connection is
			// poked too, so the drain cannot hang on it.
			conn.SetReadDeadline(aLongTimeAgo)
		}
		t.wg.Add(1)
		t.mu.Unlock()
		go t.handle(conn)
	}
}

// revokeLeases withdraws every arena lease on every connection and
// pushes each owner a MsgLeaseRevoke notice, used on drain and
// breaker-open. Clients fall back to in-band transfer transparently. It
// reports how many leases were revoked.
func (t *TCPServer) revokeLeases() int {
	all := t.arena.RevokeAll()
	for _, r := range all {
		if s, ok := r.Owner.(*muxSession); ok {
			s.sendLeaseRevoke(r.ID)
		}
	}
	return len(all)
}

// marshalStats encodes the server's statistics document for a
// MsgStatsResult reply.
func marshalStats(srv *Server) (json.RawMessage, error) {
	stats, err := json.Marshal(srv.Stats())
	if err != nil {
		return nil, fmt.Errorf("encode stats: %w", err)
	}
	return stats, nil
}
