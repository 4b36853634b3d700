package client

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"kaas/internal/accel"
	"kaas/internal/core"
	"kaas/internal/faults"
	"kaas/internal/kernels"
	"kaas/internal/vclock"
)

// slowKernel burns ~5 s of wall time of modeled device work at the test
// clock scale unless its context is cancelled.
type slowKernel struct{}

func (slowKernel) Name() string     { return "slow" }
func (slowKernel) Kind() accel.Kind { return accel.GPU }
func (slowKernel) Cost(*kernels.Request) (kernels.Cost, error) {
	return kernels.Cost{Work: 4e15}, nil
}
func (slowKernel) Execute(*kernels.Request) (*kernels.Response, error) {
	return &kernels.Response{Values: map[string]float64{"done": 1}}, nil
}

// startFaultyServer brings up a KaaS TCP server behind a fault-injecting
// listener scripted by plans (nil = no faults).
func startFaultyServer(t *testing.T, plans func(i int) faults.Plan) (*core.Server, *faults.Listener) {
	t.Helper()
	clock := vclock.Scaled(1000)
	host, err := accel.NewHost(clock, "node", accel.XeonE52698,
		accel.TeslaP100, accel.TeslaP100)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	t.Cleanup(host.Close)
	srv, err := core.New(core.Config{Clock: clock, Host: host})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	t.Cleanup(srv.Close)
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	ln := faults.Wrap(raw, plans)
	tcp, err := core.ServeTCPListener(srv, ln)
	if err != nil {
		t.Fatalf("ServeTCPListener: %v", err)
	}
	t.Cleanup(func() { tcp.Close() })
	return srv, ln
}

// waitUntil polls cond until it holds or the wall deadline passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestDeadlinePropagationEndToEnd(t *testing.T) {
	srv, ln := startFaultyServer(t, nil)
	if err := srv.Register(slowKernel{}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	baselineGoroutines := runtime.NumGoroutine()
	c := Dial(ln.Addr().String(), WithMux(1))
	defer c.Close()

	// Phase 1: an already-expired context returns promptly without any
	// network traffic or kernel execution.
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	_, err := c.InvokeContext(expired, "slow", nil, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired ctx err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("expired ctx returned after %v", elapsed)
	}
	if n := ln.Accepted(); n != 0 {
		t.Errorf("expired ctx opened %d connections", n)
	}
	if st := srv.Stats(); st.ColdStarts != 0 {
		t.Errorf("expired ctx executed the kernel: %+v", st)
	}

	// Phase 2: a mid-flight cancellation is observed by the server —
	// the kernel's context is cancelled and in-flight work drains long
	// before the kernel's ~5 s of wall time — while a sibling stream on
	// the same connection is unharmed.
	if err := c.Register("matmul"); err != nil {
		t.Fatalf("Register: %v", err)
	}
	ctx, cancel2 := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := c.InvokeContext(ctx, "slow", nil, nil)
		errCh <- err
	}()
	waitUntil(t, 2*time.Second, func() bool { return srv.Stats().InFlight == 1 }, "invocation in flight")
	sibling := make(chan error, 1)
	go func() {
		_, err := c.InvokeContext(context.Background(), "slow", nil, nil)
		sibling <- err
	}()
	waitUntil(t, 2*time.Second, func() bool { return srv.Stats().InFlight == 2 }, "sibling in flight")
	cancel2()

	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled invoke err = %v, want Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled invoke did not return")
	}
	start = time.Now()
	waitUntil(t, 2*time.Second, func() bool { return srv.Stats().InFlight == 1 }, "server to drop the cancelled stream")
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("server dropped the cancelled stream %v after cancellation", elapsed)
	}
	select {
	case err := <-sibling:
		t.Fatalf("sibling stream ended with the cancelled one: %v", err)
	case <-time.After(50 * time.Millisecond):
	}

	// The connection keeps serving afterwards; it was never replaced.
	if _, err := c.Invoke("matmul", kernels.Params{"n": 32}, nil); err != nil {
		t.Fatalf("Invoke after cancel: %v", err)
	}
	if n := ln.Accepted(); n != 1 {
		t.Errorf("server accepted %d connections, want the 1 shared one throughout", n)
	}

	// Close ends the sibling and leaves no goroutine behind.
	c.Close()
	if err := <-sibling; !errors.Is(err, ErrClosed) {
		t.Errorf("sibling after Close: err = %v, want ErrClosed", err)
	}
	waitUntil(t, 2*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baselineGoroutines
	}, "goroutines to settle")
}

func TestDefaultTimeoutAgainstStalledServer(t *testing.T) {
	srv, ln := startFaultyServer(t, faults.Script(
		faults.Plan{Mode: faults.Stall, Delay: 250 * time.Millisecond},
	))
	if err := srv.Register(slowKernel{}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	c := Dial(ln.Addr().String(), WithTimeout(50*time.Millisecond))
	defer c.Close()
	start := time.Now()
	_, err := c.Invoke("slow", nil, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled invoke err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("timeout fired after %v, want ~50ms", elapsed)
	}
}

func TestRemoteErrorNeverRetried(t *testing.T) {
	_, ln := startFaultyServer(t, nil)
	c := Dial(ln.Addr().String(), WithRetries(5))
	defer c.Close()
	var re *RemoteError
	if _, err := c.Invoke("no-such-kernel", nil, nil); !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	m := c.Metrics()
	if m.Retries != 0 {
		t.Errorf("RemoteError was retried %d times", m.Retries)
	}
	if m.RemoteErrors != 1 {
		t.Errorf("RemoteErrors = %d, want 1", m.RemoteErrors)
	}
	if m.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1", m.Attempts)
	}
}

// TestStaleSharedConnReplacedTransparently kills the idle shared
// connection server-side: the next call must succeed without the retry
// policy, either by the one transparent replacement (the call found the
// connection dead) or by a plain redial (the reader saw the EOF first).
func TestStaleSharedConnReplacedTransparently(t *testing.T) {
	srv, ln := startFaultyServer(t, nil)
	if err := srv.Register(kernels.NewMonteCarlo()); err != nil {
		t.Fatalf("Register: %v", err)
	}
	// No retry budget: recovery must come from the client's own
	// connection replacement, not the policy.
	c := Dial(ln.Addr().String(), WithMux(1))
	defer c.Close()
	if _, err := c.Invoke("mci", kernels.Params{"n": 1000}, nil); err != nil {
		t.Fatalf("first Invoke: %v", err)
	}

	// Kill the server side of the shared connection while it sits idle.
	rng := rand.New(rand.NewSource(42))
	killed := 0
	for ln.CloseRandom(rng) {
		killed++
	}
	if killed != 1 {
		t.Fatalf("killed %d connections, want the 1 shared one", killed)
	}
	waitUntil(t, 2*time.Second, func() bool { return srv.Stats().InFlight == 0 }, "server idle")

	if _, err := c.Invoke("mci", kernels.Params{"n": 1000}, nil); err != nil {
		t.Fatalf("Invoke over stale shared conn: %v", err)
	}
	m := c.Metrics()
	if m.StaleConns > 1 {
		t.Errorf("StaleConns = %d, want at most 1", m.StaleConns)
	}
	if m.Retries != 0 {
		t.Errorf("Retries = %d, want 0 (transparent replacement only)", m.Retries)
	}
	if n := ln.Accepted(); n != 2 {
		t.Errorf("server accepted %d connections, want 2 (the killed one and its replacement)", n)
	}
}

// TestRetryRecoversFromEveryFaultMode drives one faulty connection per
// stream-breaking fault mode and asserts the retry policy recovers.
func TestRetryRecoversFromEveryFaultMode(t *testing.T) {
	modes := []faults.Plan{
		{Mode: faults.DropAfterN, N: 6},
		{Mode: faults.CloseMidFrame},
		{Mode: faults.CorruptFrame, N: 2},
		{Mode: faults.DropAfterN, N: 0}, // immediate drop: pure reset
	}
	for _, plan := range modes {
		plan := plan
		t.Run(plan.Mode.String(), func(t *testing.T) {
			srv, ln := startFaultyServer(t, func(i int) faults.Plan {
				if i == 0 {
					return plan
				}
				return faults.Plan{}
			})
			if err := srv.Register(kernels.NewMonteCarlo()); err != nil {
				t.Fatalf("Register: %v", err)
			}
			c := Dial(ln.Addr().String(), WithRetryPolicy(RetryPolicy{
				MaxAttempts: 4,
				BaseDelay:   time.Millisecond,
			}))
			defer c.Close()
			res, err := c.Invoke("mci", kernels.Params{"n": 1000, "seed": 3}, nil)
			if err != nil {
				t.Fatalf("Invoke through %s: %v", plan.Mode, err)
			}
			if res.Values["estimate"] == 0 {
				t.Error("empty result after recovery")
			}
			m := c.Metrics()
			if m.ConnErrors == 0 {
				t.Errorf("fault mode %s never surfaced a connection error", plan.Mode)
			}
			if m.Retries == 0 {
				t.Errorf("fault mode %s never triggered a retry", plan.Mode)
			}
		})
	}
}

// TestSlowWriteModeSucceedsWithoutRetry covers the non-fatal fault mode:
// a throttled connection delivers intact frames, so no retry fires.
func TestSlowWriteModeSucceedsWithoutRetry(t *testing.T) {
	srv, ln := startFaultyServer(t, faults.Script(
		faults.Plan{Mode: faults.SlowWrite, Chunk: 16, Delay: 200 * time.Microsecond},
	))
	if err := srv.Register(kernels.NewMonteCarlo()); err != nil {
		t.Fatalf("Register: %v", err)
	}
	c := Dial(ln.Addr().String(), WithRetries(3))
	defer c.Close()
	if _, err := c.Invoke("mci", kernels.Params{"n": 1000}, nil); err != nil {
		t.Fatalf("Invoke over slow link: %v", err)
	}
	if m := c.Metrics(); m.Retries != 0 {
		t.Errorf("slow write triggered %d retries", m.Retries)
	}
}

// TestPoolSurvivesRandomConnKills is the shared-connection concurrency
// test: N goroutines × M invocations while random server-side
// connections keep getting closed under them. Every invocation must return
// exactly one correct reply — none lost, none cross-wired.
func TestPoolSurvivesRandomConnKills(t *testing.T) {
	srv, ln := startFaultyServer(t, nil)
	matmul, err := kernels.ByName("matmul")
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	if err := srv.Register(matmul); err != nil {
		t.Fatalf("Register: %v", err)
	}
	c := Dial(ln.Addr().String(), WithRetryPolicy(RetryPolicy{
		MaxAttempts: 10,
		BaseDelay:   time.Millisecond,
		MaxDelay:    20 * time.Millisecond,
	}))
	defer c.Close()

	const workers = 8
	const perWorker = 10

	// Precompute the expected checksum per seed locally: the kernel is
	// deterministic, so a cross-wired or duplicated reply would land on
	// the wrong seed's expectation.
	expected := make([]float64, workers*perWorker)
	for i := range expected {
		resp, err := matmul.Execute(&kernels.Request{
			Params: kernels.Params{"n": 48, "seed": float64(i)},
		})
		if err != nil {
			t.Fatalf("local Execute: %v", err)
		}
		expected[i] = resp.Values["checksum"]
	}

	// Every fourth completed invocation closes a random live server-side
	// connection under the others still in flight on it. Pacing the kills
	// by progress, not wall time, leaves room for a retried attempt to
	// finish between two kills however slow the host (or the race
	// detector) makes an invocation.
	var (
		killMu    sync.Mutex
		rng       = rand.New(rand.NewSource(99))
		completed int
	)
	afterInvoke := func() {
		killMu.Lock()
		defer killMu.Unlock()
		if completed++; completed%4 == 0 {
			ln.CloseRandom(rng)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				id := w*perWorker + j
				res, err := c.Invoke("matmul", kernels.Params{"n": 48, "seed": float64(id)}, nil)
				afterInvoke()
				if err != nil {
					errs <- err
					continue
				}
				if got := res.Values["checksum"]; got != expected[id] {
					errs <- errors.New("cross-wired reply: wrong checksum for seed")
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("lost or wrong reply: %v", err)
	}

	m := c.Metrics()
	if m.Attempts < workers*perWorker {
		t.Errorf("Attempts = %d, want >= %d", m.Attempts, workers*perWorker)
	}
	t.Logf("pool under fire: %d attempts, %d retries, %d stale conns, %d conn errors, %d server conns",
		m.Attempts, m.Retries, m.StaleConns, m.ConnErrors, ln.Accepted())
	waitUntil(t, 2*time.Second, func() bool { return srv.Stats().InFlight == 0 }, "server drain")
}

// TestRetryDelaysAreDeterministic pins the jitter PRNG so two policies
// with the same seed produce identical backoff schedules.
func TestRetryDelaysAreDeterministic(t *testing.T) {
	p := DefaultRetryPolicy().withDefaults()
	a := rand.New(rand.NewSource(p.Seed))
	b := rand.New(rand.NewSource(p.Seed))
	for retry := 1; retry <= 5; retry++ {
		da, db := p.delay(retry, a), p.delay(retry, b)
		if da != db {
			t.Errorf("retry %d: %v != %v with same seed", retry, da, db)
		}
		if da <= 0 || da > p.MaxDelay+time.Duration(p.Jitter*float64(p.MaxDelay)) {
			t.Errorf("retry %d delay %v out of bounds", retry, da)
		}
	}
}

func TestConnErrorClassification(t *testing.T) {
	if isConnError(&RemoteError{Message: "boom"}) {
		t.Error("RemoteError classified as connection error")
	}
	if isConnError(asConnError(&RemoteError{Message: "boom"})) {
		t.Error("asConnError wrapped a RemoteError")
	}
	if isConnError(asConnError(context.Canceled)) {
		t.Error("context.Canceled classified as retryable")
	}
	if isConnError(asConnError(ErrClosed)) {
		t.Error("ErrClosed classified as retryable")
	}
	if !isConnError(asConnError(&net.OpError{Op: "dial", Err: errors.New("refused")})) {
		t.Error("dial error not classified as retryable")
	}
}
