// Package client implements the KaaS client API (§4.1): TCP-based kernel
// registration and invocation with in-band (serialized) or out-of-band
// (shared-memory) data transfer, plus optional network shaping so
// loopback deployments can be measured as if remote.
//
// The client is built for a long-lived shared service: all calls share a
// few multiplexed connections, every call has a context-aware variant
// that propagates its deadline into the wire header (so the server can
// reject expired work and cancel in-flight kernels) and cancels its own
// stream when the context ends, and connection-level failures can
// be retried under a bounded RetryPolicy with exponential backoff and
// deterministic jitter. Server-reported failures (RemoteError) carry the
// wire protocol's machine-readable code: transient ones (OVERLOADED,
// UNAVAILABLE — the request was shed before executing) are retried with
// backoff like connection failures; all others fail fast. Retry activity
// is observable through Metrics.
package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"kaas/internal/kernels"
	"kaas/internal/netshape"
	"kaas/internal/shm"
	"kaas/internal/wire"
)

// ErrClosed indicates use of a closed client.
var ErrClosed = errors.New("client: closed")

// RemoteError is a failure reported by the server.
type RemoteError struct {
	// Message is the server's error text.
	Message string
	// Code is the machine-readable failure class (a wire.Code* constant).
	// Servers predating structured errors send none; it defaults to
	// wire.CodeInternal.
	Code string
	// Retryable is wire.Retryable(Code): the server rejected the request
	// before executing it, so retrying after backoff is safe and may
	// succeed.
	Retryable bool
}

// Error implements error.
func (e *RemoteError) Error() string {
	if e.Code != "" && e.Code != wire.CodeInternal {
		return "client: server error (" + e.Code + "): " + e.Message
	}
	return "client: server error: " + e.Message
}

// Option configures a Client.
type Option func(*Client)

// WithLink shapes all traffic through the given network link.
func WithLink(l *netshape.Link) Option {
	return func(c *Client) { c.link = l }
}

// WithArena enables the zero-copy out-of-band data plane: the client
// negotiates leases over windows of the server's pooled tensor arena and
// moves invocation payloads by handle — the bytes never ride the wire and
// the serving path reads the shared window in place. The pool must be the
// same instance the server serves (same host). Connections whose server
// lacks arena support, and leases revoked mid-flight (drain,
// breaker-open), fall back to in-band transfer transparently.
func WithArena(p *shm.ArenaPool) Option {
	return func(c *Client) { c.arena = p }
}

// WithTimeout sets a default per-call deadline applied whenever the
// caller's context has none. Zero (the default) means calls without a
// context deadline wait forever.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithRetryPolicy enables bounded retries of connection-level failures.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *Client) { c.retry = p.withDefaults() }
}

// WithRetries enables the default retry policy with the given total
// attempt budget (including the first attempt).
func WithRetries(attempts int) Option {
	p := DefaultRetryPolicy()
	p.MaxAttempts = attempts
	return WithRetryPolicy(p)
}

// defaultMuxConns is how many shared connections a client opens unless
// WithMux says otherwise.
const defaultMuxConns = 2

// WithMux sets how many shared connections the client spreads its
// in-flight requests over (default 2). Requests are interleaved by
// StreamID under protocol version 2, and cancelling one call sends a
// per-stream CANCEL frame instead of tearing down the shared socket.
// conns values below 1 mean 1.
func WithMux(conns int) Option {
	return func(c *Client) { c.slots = make([]muxSlot, max(conns, 1)) }
}

// WithTenant stamps every invocation from this client with a tenant
// identity for server-side fair queueing. Servers that predate tenant
// accounting ignore the header; unidentified clients are accounted to
// the server's "default" tenant.
func WithTenant(tenant string) Option {
	return func(c *Client) { c.tenant = tenant }
}

// Metrics is a snapshot of the client's reliability counters.
type Metrics struct {
	// Attempts counts round-trip attempts, including retries.
	Attempts uint64
	// Retries counts policy-driven retry attempts.
	Retries uint64
	// StaleConns counts shared connections found dead mid-call and
	// replaced transparently.
	StaleConns uint64
	// ConnErrors counts connection-level failures observed.
	ConnErrors uint64
	// RemoteErrors counts server-reported (never retried) failures.
	RemoteErrors uint64
}

// clientMetrics is the atomic backing store for Metrics.
type clientMetrics struct {
	attempts     atomic.Uint64
	retries      atomic.Uint64
	staleConns   atomic.Uint64
	connErrors   atomic.Uint64
	remoteErrors atomic.Uint64
}

// Client talks to a KaaS server. It is safe for concurrent use: all
// in-flight requests share a small fixed set of multiplexed connections
// (WithMux), spread round-robin; a dead connection is redialed on next
// use.
type Client struct {
	addr    string
	link    *netshape.Link
	arena   *shm.ArenaPool
	timeout time.Duration
	retry   RetryPolicy
	tenant  string

	// slots are the shared connections, opened lazily; next spreads
	// requests over them round-robin.
	slots []muxSlot
	next  atomic.Uint64

	metrics clientMetrics

	rngMu sync.Mutex
	rng   *rand.Rand

	mu     sync.Mutex
	closed bool
}

// Dial creates a client for the server at addr. Connections are opened
// lazily.
func Dial(addr string, opts ...Option) *Client {
	c := &Client{
		addr:  addr,
		retry: RetryPolicy{MaxAttempts: 1}.withDefaults(),
		slots: make([]muxSlot, defaultMuxConns),
	}
	for _, o := range opts {
		o(c)
	}
	c.rng = rand.New(rand.NewSource(c.retry.Seed))
	return c
}

// Metrics returns a snapshot of the client's reliability counters.
func (c *Client) Metrics() Metrics {
	return Metrics{
		Attempts:     c.metrics.attempts.Load(),
		Retries:      c.metrics.retries.Load(),
		StaleConns:   c.metrics.staleConns.Load(),
		ConnErrors:   c.metrics.connErrors.Load(),
		RemoteErrors: c.metrics.remoteErrors.Load(),
	}
}

// Close tears down every shared connection.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	for i := range c.slots {
		slot := &c.slots[i]
		slot.mu.Lock()
		if slot.conn != nil {
			slot.conn.fail(ErrClosed)
			slot.conn = nil
		}
		slot.mu.Unlock()
	}
}

// dial opens a fresh connection, honoring the context deadline.
func (c *Client) dial(ctx context.Context) (net.Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, asConnError(fmt.Errorf("client: dial %s: %w", c.addr, err))
	}
	return conn, nil
}

// roundTrip sends one message and waits for its reply under the client's
// retry policy, propagating the context deadline into the wire header.
func (c *Client) roundTrip(ctx context.Context, msg *wire.Message) (*wire.Message, error) {
	if c.timeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.timeout)
			defer cancel()
		}
	}
	// An already-expired context returns promptly without any network
	// traffic — the kernel is never executed.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if deadline, ok := ctx.Deadline(); ok {
		msg.Header.DeadlineNanos = deadline.UnixNano()
	}

	var lastErr error
	for attempt := 0; attempt < c.retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			if !c.backoff(ctx, attempt) {
				// The remaining deadline cannot cover the backoff (or the
				// context was cancelled outright): give the caller the
				// last real failure now instead of sleeping into a
				// guaranteed context error.
				break
			}
			c.metrics.retries.Add(1)
		}
		reply, err := c.attempt(ctx, msg)
		if err == nil {
			return reply, nil
		}
		var re *RemoteError
		if errors.As(err, &re) {
			c.metrics.remoteErrors.Add(1)
			if !re.Retryable {
				return nil, err
			}
			// The server shed the request (overload, drain, open
			// breakers) before executing it: retrying with backoff is
			// safe.
			lastErr = err
			continue
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		if !isConnError(err) {
			return nil, err
		}
		c.metrics.connErrors.Add(1)
		lastErr = err
	}
	if lastErr == nil {
		lastErr = ctx.Err()
	}
	return nil, lastErr
}

// backoff sleeps between retries. It reports false — without sleeping —
// when the context is cancelled or its remaining deadline cannot cover
// the sleep, so the retry loop fails fast with the last real error
// rather than burning the caller's remaining budget on a wait that can
// only end in a context error.
func (c *Client) backoff(ctx context.Context, retry int) bool {
	c.rngMu.Lock()
	d := c.retry.delay(retry, c.rng)
	c.rngMu.Unlock()
	if d <= 0 {
		return ctx.Err() == nil
	}
	if deadline, ok := ctx.Deadline(); ok && time.Until(deadline) < d {
		return false
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// attempt performs one round trip over a shared connection. A cached
// connection found dead mid-call is replaced transparently exactly once:
// the client cannot know the server closed an idle connection until it is
// used.
func (c *Client) attempt(ctx context.Context, msg *wire.Message) (*wire.Message, error) {
	mc, fresh, err := c.conn(ctx)
	if err != nil {
		return nil, err
	}
	c.metrics.attempts.Add(1)
	reply, err := mc.send(ctx, msg)
	if err != nil && !fresh && isConnError(err) && ctx.Err() == nil {
		c.metrics.staleConns.Add(1)
		if mc, _, err = c.conn(ctx); err != nil {
			return nil, err
		}
		c.metrics.attempts.Add(1)
		reply, err = mc.send(ctx, msg)
	}
	if err != nil {
		return nil, err
	}
	if rerr := replyError(reply); rerr != nil {
		return nil, rerr
	}
	return reply, nil
}

// ctxCause reports the context error behind a failed handshake I/O
// operation, or nil if the failure was not caused by the context. The
// socket deadline is set to the context deadline, and the socket's timer
// can fire a moment before the context's own — so a socket i/o timeout at
// or past the context deadline counts as the deadline expiring.
func ctxCause(ctx context.Context, err error) error {
	if ctxErr := ctx.Err(); ctxErr != nil {
		return ctxErr
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		if deadline, ok := ctx.Deadline(); ok && !time.Now().Before(deadline) {
			return context.DeadlineExceeded
		}
	}
	return nil
}

// replyError converts a server error frame into a RemoteError; non-error
// frames yield nil.
func replyError(reply *wire.Message) error {
	if reply.Type != wire.MsgError {
		return nil
	}
	code := reply.Header.Code
	if code == "" {
		code = wire.CodeInternal
	}
	return &RemoteError{Message: reply.Header.Error, Code: code, Retryable: wire.Retryable(code)}
}

// Register registers a kernel (by library name) on the server.
func (c *Client) Register(kernel string) error {
	return c.RegisterContext(context.Background(), kernel)
}

// RegisterContext registers a kernel, honoring the context's deadline and
// cancellation.
func (c *Client) RegisterContext(ctx context.Context, kernel string) error {
	reply, err := c.roundTrip(ctx, &wire.Message{
		Type:   wire.MsgRegister,
		Header: wire.Header{Kernel: kernel},
	})
	if err != nil {
		return err
	}
	if reply.Type != wire.MsgRegistered {
		return fmt.Errorf("client: unexpected reply %s", reply.Type)
	}
	return nil
}

// Result is a completed invocation.
type Result struct {
	// Values are the kernel's scalar outputs. The map is the caller's:
	// it is decoded fresh for this result and never pooled.
	Values map[string]float64
	// Data is the kernel's output payload.
	Data []byte
	// Cold reports whether the invocation started a new runner.
	Cold bool
	// CachedCold reports whether a cold start skipped JIT compilation
	// because the compiled artifact was already cached. Only meaningful
	// when Cold is true.
	CachedCold bool
	// InvocationID is the server-assigned identifier of this invocation,
	// joinable against the server's structured logs and metrics.
	InvocationID string
	// ServerTime is the server-side modeled invocation duration.
	ServerTime time.Duration
}

// Invoke calls a kernel with parameters and an optional in-band payload.
func (c *Client) Invoke(kernel string, params kernels.Params, data []byte) (*Result, error) {
	return c.InvokeContext(context.Background(), kernel, params, data)
}

// InvokeContext calls a kernel, honoring the context's deadline and
// cancellation: an expired context returns before any network traffic,
// the deadline rides the wire header so the server rejects stale work,
// and cancelling mid-flight sends a CANCEL frame for this call's stream,
// on which the server cancels the kernel's context.
func (c *Client) InvokeContext(ctx context.Context, kernel string, params kernels.Params, data []byte) (*Result, error) {
	return c.InvokeTenantContext(ctx, c.tenant, kernel, params, data)
}

// InvokeTenantContext is InvokeContext with an explicit per-call tenant
// identity, overriding any WithTenant default. Cluster routers use it to
// share one client per server address across many tenants.
func (c *Client) InvokeTenantContext(ctx context.Context, tenant, kernel string, params kernels.Params, data []byte) (*Result, error) {
	// The request struct never leaves this goroutine (the writer queue
	// carries copies), so it goes back to the pool however the call ends.
	msg := wire.NewMessage()
	msg.Type, msg.Header, msg.Body = wire.MsgInvoke, wire.Header{Kernel: kernel, Params: params, Tenant: tenant}, data
	reply, err := c.roundTrip(ctx, msg)
	wire.Release(msg)
	if err != nil {
		return nil, err
	}
	if reply.Type != wire.MsgResult {
		return nil, fmt.Errorf("client: unexpected reply %s", reply.Type)
	}
	res := &Result{
		Values:       reply.Header.Values,
		Data:         reply.Body,
		Cold:         reply.Header.ColdStart,
		CachedCold:   reply.Header.CachedColdStart,
		InvocationID: reply.Header.InvocationID,
		ServerTime:   time.Duration(reply.Header.DurationNanos),
	}
	// The Result holds the reply's values and body; only the struct goes
	// back to the pool.
	wire.Release(reply)
	return res, nil
}

// ControlContext performs one cluster control-plane round trip: payload
// rides a MsgControl frame and the peer's MsgControlAck body is
// returned. The cplane package uses it for heartbeat gossip; kaasctl
// uses it for cluster status. Servers without a control plane answer
// with a RemoteError.
func (c *Client) ControlContext(ctx context.Context, payload []byte) ([]byte, error) {
	reply, err := c.roundTrip(ctx, &wire.Message{Type: wire.MsgControl, Body: payload})
	if err != nil {
		return nil, err
	}
	if reply.Type != wire.MsgControlAck {
		return nil, fmt.Errorf("client: unexpected reply %s", reply.Type)
	}
	return reply.Body, nil
}

// List returns the kernel names registered on the server.
func (c *Client) List() ([]string, error) {
	return c.ListContext(context.Background())
}

// ListContext is List with deadline and cancellation propagation.
func (c *Client) ListContext(ctx context.Context) ([]string, error) {
	reply, err := c.roundTrip(ctx, &wire.Message{Type: wire.MsgList})
	if err != nil {
		return nil, err
	}
	if reply.Type != wire.MsgListResult {
		return nil, fmt.Errorf("client: unexpected reply %s", reply.Type)
	}
	return reply.Header.Names, nil
}

// Stats fetches the server's statistics document.
func (c *Client) Stats(out any) error {
	return c.StatsContext(context.Background(), out)
}

// StatsContext is Stats with deadline and cancellation propagation.
func (c *Client) StatsContext(ctx context.Context, out any) error {
	reply, err := c.roundTrip(ctx, &wire.Message{Type: wire.MsgStats})
	if err != nil {
		return err
	}
	if reply.Type != wire.MsgStatsResult {
		return fmt.Errorf("client: unexpected reply %s", reply.Type)
	}
	if err := json.Unmarshal(reply.Header.Stats, out); err != nil {
		return fmt.Errorf("client: decode stats: %w", err)
	}
	return nil
}
