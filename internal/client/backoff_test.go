package client

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"kaas/internal/accel"
	"kaas/internal/core"
	"kaas/internal/kernels"
	"kaas/internal/vclock"
	"kaas/internal/wire"
)

// TestBackoffCappedByContextDeadline: a retry backoff longer than the
// context's remaining deadline must not be slept through — the client
// fails fast and returns the last transport error, not the context error
// it would have manufactured by waiting out the deadline.
func TestBackoffCappedByContextDeadline(t *testing.T) {
	// A listener that is immediately closed: every dial is refused, so
	// the retry loop is nothing but backoff.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	c := Dial(addr, WithRetryPolicy(RetryPolicy{
		MaxAttempts: 4,
		BaseDelay:   10 * time.Second,
		MaxDelay:    10 * time.Second,
	}))
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.InvokeContext(ctx, "mci", nil, nil)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("invoke against a dead address succeeded")
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the transport error, not the deadline it slept through", err)
	}
	if !isConnError(err) {
		t.Errorf("err = %v, want the last connection error", err)
	}
	// The first 10s backoff exceeds the 200ms budget, so the call must
	// return almost immediately — well before even the context deadline.
	if elapsed > 2*time.Second {
		t.Errorf("invoke returned after %v, want prompt fail-fast (backoff overran the deadline)", elapsed)
	}
}

// gateKernel parks every execution on a channel so a test can hold the
// server's admission slots exactly as long as it needs.
type gateKernel struct {
	started chan struct{}
	gate    chan struct{}
}

func (gateKernel) Name() string     { return "gate" }
func (gateKernel) Kind() accel.Kind { return accel.GPU }
func (gateKernel) Cost(*kernels.Request) (kernels.Cost, error) {
	return kernels.Cost{Work: 1e8, BytesIn: 64, BytesOut: 16, DeviceMemory: 1 << 20}, nil
}
func (k gateKernel) Execute(*kernels.Request) (*kernels.Response, error) {
	k.started <- struct{}{}
	<-k.gate
	return &kernels.Response{Values: map[string]float64{"ok": 1}}, nil
}

// TestOverloadedRetriedUntilAdmitted: an OVERLOADED rejection is marked
// retryable, so the client backs off and retries until admission control
// lets it through, instead of failing the call on first rejection.
func TestOverloadedRetriedUntilAdmitted(t *testing.T) {
	clock := vclock.Scaled(1000)
	host, err := accel.NewHost(clock, "node", accel.XeonE52698, accel.TeslaP100)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	t.Cleanup(host.Close)
	srv, err := core.New(core.Config{Clock: clock, Host: host, MaxInFlightTotal: 1})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	t.Cleanup(srv.Close)
	gk := gateKernel{started: make(chan struct{}, 1), gate: make(chan struct{})}
	if err := srv.Register(gk); err != nil {
		t.Fatalf("Register gate: %v", err)
	}
	if err := srv.Register(kernels.NewMonteCarlo()); err != nil {
		t.Fatalf("Register mci: %v", err)
	}
	tcp, err := core.ServeTCP(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeTCP: %v", err)
	}
	t.Cleanup(func() { tcp.Close() })

	// Occupy the single admission slot with a parked invocation.
	occupant := Dial(tcp.Addr())
	defer occupant.Close()
	occDone := make(chan error, 1)
	go func() {
		_, err := occupant.Invoke("gate", nil, nil)
		occDone <- err
	}()
	select {
	case <-gk.started:
	case <-time.After(10 * time.Second):
		t.Fatal("occupant never reached the kernel")
	}

	c := Dial(tcp.Addr(), WithRetryPolicy(RetryPolicy{
		MaxAttempts: 10,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
	}))
	defer c.Close()
	invDone := make(chan error, 1)
	go func() {
		_, err := c.Invoke("mci", kernels.Params{"n": 1000}, nil)
		invDone <- err
	}()

	// Wait until at least one rejection has come back, then free the
	// slot: a later retry must be admitted and succeed.
	waitUntil(t, 5*time.Second, func() bool { return c.Metrics().RemoteErrors >= 1 }, "an OVERLOADED rejection")
	close(gk.gate)
	if err := <-occDone; err != nil {
		t.Fatalf("occupant invoke: %v", err)
	}
	select {
	case err := <-invDone:
		if err != nil {
			t.Fatalf("overloaded invoke never recovered: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("overloaded invoke did not return")
	}
	m := c.Metrics()
	if m.Retries == 0 {
		t.Error("OVERLOADED rejection was not retried")
	}
	if m.RemoteErrors == 0 {
		t.Error("no remote error recorded for the rejection")
	}
}

// TestRemoteErrorCodeSurfaced: the structured code on a wire error, and
// the retryability derived from it, reach the caller through RemoteError.
func TestRemoteErrorCodeSurfaced(t *testing.T) {
	_, ln := startFaultyServer(t, nil)
	c := Dial(ln.Addr().String())
	defer c.Close()
	var re *RemoteError
	_, err := c.Invoke("no-such-kernel", nil, nil)
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if re.Code != wire.CodeUnknownKernel {
		t.Errorf("Code = %q, want %q", re.Code, wire.CodeUnknownKernel)
	}
	if re.Retryable {
		t.Error("UNKNOWN_KERNEL marked retryable")
	}
}
