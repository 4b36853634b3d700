package core

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"kaas/internal/accel"
	"kaas/internal/breaker"
	"kaas/internal/faults"
	"kaas/internal/vclock"
	"kaas/internal/wire"
)

// TestBreakerOpensOnFlappingDeviceAndRecovers is the survivability chaos
// test: one of two GPUs flaps (fails mid-service, repaired by the next
// cold-start spawn) until its circuit breaker opens. While the breaker
// is open, sustained load must complete entirely on the healthy device —
// zero scheduler-loop retries against the flapper — and after the open
// timeout a half-open probe must bring the healed device back.
func TestBreakerOpensOnFlappingDeviceAndRecovers(t *testing.T) {
	const spawnCost = 31 * time.Millisecond
	hc := &hookClock{Clock: vclock.Scaled(5000)}
	host, err := accel.NewHost(hc, "test", accel.XeonE52698, testGPUProfile(), testGPUProfile())
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	t.Cleanup(host.Close)
	dev0, dev1 := host.Devices()[0], host.Devices()[1]
	flapper := faults.NewDeviceFlapper(dev0)

	s, err := New(Config{
		Clock:                hc,
		Host:                 host,
		RunnerSpawnCost:      spawnCost,
		MaxRunnersPerDevice:  1,
		MaxInFlightPerRunner: 1,
		BreakerOpenTimeout:   10 * time.Minute, // modeled
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)

	// The flapper's repair half runs during the distinctive cold-start
	// spawn sleep, so every placement attempt finds the device healthy.
	hc.onSleep = func(d time.Duration) {
		if d == spawnCost {
			flapper.Repair()
		}
	}

	dev0Busy := func() bool {
		return s.Stats().PerDevice[dev0.ID()].Runners > 0
	}

	// Hook modes: chaos fails dev0 whenever an invocation is running on
	// it; block parks the first execution NOT on dev0 (to pin the healthy
	// device's runner while the recovery probe places on dev0).
	const (
		modeChaos = iota
		modeBlock
	)
	var mode atomic.Int32
	gate := make(chan struct{})
	blocked := make(chan struct{}, 1)
	k := &execHookKernel{
		fakeKernel: &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()},
		onExecute: func() {
			switch mode.Load() {
			case modeChaos:
				if dev0Busy() {
					flapper.Fail()
				}
			case modeBlock:
				if !dev0Busy() {
					blocked <- struct{}{}
					<-gate
				}
			}
		},
	}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}

	// Phase A: with the healthy device down, every failover attempt lands
	// on the flapper and fails mid-service. Three consecutive failures
	// trip the breaker; the invocation then exhausts its budget.
	dev1.Fail()
	if _, _, err := s.Invoke(context.Background(), "k", nil); !errors.Is(err, accel.ErrDeviceFailed) {
		t.Fatalf("chaos invoke err = %v, want ErrDeviceFailed", err)
	}
	if got := s.breakers.State(dev0.ID()); got != breaker.Open {
		t.Fatalf("breaker state after 3 consecutive failures = %v, want open", got)
	}
	if got := k.executions(); got != 3 {
		t.Fatalf("kernel executed %d times in the chaos phase, want 3", got)
	}

	// Phase B: both devices look healthy again, but dev0's breaker is
	// open. Sustained load must be served entirely by dev1 — if the
	// scheduler retried against dev0 even once, the chaos hook would fail
	// it mid-service and the failover retry would inflate the execution
	// count past one per invocation.
	flapper.Repair()
	dev1.Repair()
	const sustained = 5
	for i := 0; i < sustained; i++ {
		if _, _, err := s.Invoke(context.Background(), "k", nil); err != nil {
			t.Fatalf("sustained invoke %d with open breaker: %v", i, err)
		}
	}
	if got := k.executions(); got != 3+sustained {
		t.Errorf("executions after sustained load = %d, want %d (placement retried the open device)",
			got, 3+sustained)
	}
	if fails, _ := flapper.Cycles(); fails != 3 {
		t.Errorf("device failed %d times, want 3 (load reached the open device)", fails)
	}
	st := s.Stats()
	if got := st.PerDevice[dev0.ID()].BreakerState; got != "open" {
		t.Errorf("dev0 BreakerState = %q, want open", got)
	}
	if got := st.PerDevice[dev0.ID()].Runners; got != 0 {
		t.Errorf("dev0 has %d runners while its breaker is open, want 0", got)
	}
	e := (*s.table.Load())["k"]
	e.mu.Lock()
	d := e.leastLoadedDeviceLocked()
	e.mu.Unlock()
	if d != nil && d.ID() == dev0.ID() {
		t.Fatal("last-resort placement returned the breaker-open device")
	}

	// Phase C: past the open timeout the breaker admits one half-open
	// probe. Pin dev1's only runner with a blocked invocation so the next
	// one must place somewhere new: the healed dev0.
	hc.Sleep(11 * time.Minute)
	mode.Store(modeBlock)
	pinErr := make(chan error, 1)
	go func() {
		_, _, err := s.Invoke(context.Background(), "k", nil)
		pinErr <- err
	}()
	select {
	case <-blocked:
	case <-time.After(10 * time.Second):
		t.Fatal("pinning invocation never reached the kernel")
	}
	if _, _, err := s.Invoke(context.Background(), "k", nil); err != nil {
		t.Fatalf("probe invoke: %v", err)
	}
	close(gate)
	select {
	case err := <-pinErr:
		if err != nil {
			t.Fatalf("pinned invoke: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("pinned invocation never finished")
	}

	if got := s.breakers.State(dev0.ID()); got != breaker.Closed {
		t.Errorf("breaker state after successful probe = %v, want closed", got)
	}
	st = s.Stats()
	if got := st.PerDevice[dev0.ID()].Runners; got != 1 {
		t.Errorf("dev0 runners after recovery = %d, want 1 (placement did not return)", got)
	}
	if got := st.PerDevice[dev0.ID()].BreakerTransitions; got != 3 {
		t.Errorf("dev0 breaker transitions = %d, want 3 (open, half-open, closed)", got)
	}
}

// TestOverloadedCodeOverTCP: admission rejections must reach the wire as
// structured OVERLOADED errors marked retryable, while unknown kernels
// get a non-retryable UNKNOWN_KERNEL.
func TestOverloadedCodeOverTCP(t *testing.T) {
	clock := vclock.Scaled(1000)
	host, err := accel.NewHost(clock, "node", accel.XeonE52698, accel.TeslaP100)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	t.Cleanup(host.Close)
	srv, err := New(Config{Clock: clock, Host: host, MaxInFlightTotal: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Close)
	if err := srv.Register(slowKernel{}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	tcp, err := ServeTCP(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeTCP: %v", err)
	}
	t.Cleanup(func() { tcp.Close() })

	// Occupy the server's single admission slot with the slow kernel.
	conn1 := dialWire(t, tcp.Addr())
	if err := wire.Write(conn1, &wire.Message{
		Type:   wire.MsgInvoke,
		Header: wire.Header{Kernel: "slow"},
	}); err != nil {
		t.Fatalf("write: %v", err)
	}
	waitFor(t, 2*time.Second, func() bool { return srv.Stats().InFlight == 1 }, "invocation in flight")

	conn2 := dialWire(t, tcp.Addr())
	start := time.Now()
	if err := wire.Write(conn2, &wire.Message{
		Type:   wire.MsgInvoke,
		Header: wire.Header{Kernel: "slow"},
	}); err != nil {
		t.Fatalf("write: %v", err)
	}
	reply, err := wire.Read(conn2)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if reply.Type != wire.MsgError {
		t.Fatalf("reply = %s, want error", reply.Type)
	}
	if reply.Header.Code != wire.CodeOverloaded {
		t.Errorf("Code = %q, want %q (error %q)", reply.Header.Code, wire.CodeOverloaded, reply.Header.Error)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("shed took %v, want immediate (the slow kernel runs for seconds)", elapsed)
	}

	// Unknown kernels are a caller bug, not a capacity problem: the code
	// must be UNKNOWN_KERNEL and not retryable.
	if err := wire.Write(conn2, &wire.Message{
		Type:   wire.MsgInvoke,
		Header: wire.Header{Kernel: "no-such-kernel"},
	}); err != nil {
		t.Fatalf("write: %v", err)
	}
	reply, err = wire.Read(conn2)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if reply.Type != wire.MsgError {
		t.Fatalf("reply = %s, want error", reply.Type)
	}
	if reply.Header.Code != wire.CodeUnknownKernel {
		t.Errorf("Code = %q, want %q", reply.Header.Code, wire.CodeUnknownKernel)
	}

	// Unblock the slow invocation before teardown so host close doesn't
	// race a live device context.
	conn1.Close()
	waitFor(t, 4*time.Second, func() bool { return srv.Stats().InFlight == 0 }, "in-flight drain")
}

// TestCloseFencesInFlightInvocation: Close must not yank the device
// context out from under a serving kernel. Run with -race: the old Close
// released every runner's context immediately, racing the invocation's
// copy-out. The fenced runner finishes, then releases its context.
func TestCloseFencesInFlightInvocation(t *testing.T) {
	s, host, _ := newTestServer(t, 1, nil)
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	k := &execHookKernel{
		fakeKernel: &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()},
		onExecute: func() {
			started <- struct{}{}
			<-gate
		},
	}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		_, _, err := s.Invoke(context.Background(), "k", nil)
		done <- err
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("invocation never reached the kernel")
	}

	s.Close()
	select {
	case err := <-done:
		t.Fatalf("invocation returned %v during Close, want it to keep running", err)
	default:
	}

	close(gate)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("in-flight invocation failed after Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fenced invocation never finished")
	}

	// The fence is not a leak: once the invocation finished, its device
	// context must have been released.
	waitFor(t, 2*time.Second, func() bool {
		return host.Devices()[0].Stats().ActiveContexts == 0
	}, "fenced runner to release its device context")
}

// TestDrainCompletesInFlightThenCloses: Drain lets admitted work finish,
// rejects new work with ErrDraining, and closes the server once idle.
func TestDrainCompletesInFlightThenCloses(t *testing.T) {
	s, _, _ := newTestServer(t, 1, nil)
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	k := &execHookKernel{
		fakeKernel: &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()},
		onExecute: func() {
			started <- struct{}{}
			<-gate
		},
	}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}

	invDone := make(chan error, 1)
	go func() {
		_, _, err := s.Invoke(context.Background(), "k", nil)
		invDone <- err
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("invocation never reached the kernel")
	}

	drainDone := make(chan error, 1)
	go func() { drainDone <- s.Drain(context.Background()) }()
	waitFor(t, 2*time.Second, func() bool { return s.Stats().Draining }, "server to start draining")

	if _, _, err := s.Invoke(context.Background(), "k", nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("invoke while draining err = %v, want ErrDraining", err)
	}
	select {
	case err := <-drainDone:
		t.Fatalf("Drain returned %v with work in flight", err)
	default:
	}

	close(gate)
	if err := <-invDone; err != nil {
		t.Errorf("in-flight invocation failed during drain: %v", err)
	}
	select {
	case err := <-drainDone:
		if err != nil {
			t.Errorf("Drain = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain never returned after the last invocation finished")
	}
	if _, _, err := s.Invoke(context.Background(), "k", nil); !errors.Is(err, ErrServerClosed) {
		t.Errorf("invoke after drain err = %v, want ErrServerClosed", err)
	}
}

// TestDrainDeadlineFencesRemainingWork: an expired drain context closes
// the server without dropping the invocation still in flight.
func TestDrainDeadlineFencesRemainingWork(t *testing.T) {
	s, _, _ := newTestServer(t, 1, nil)
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	k := &execHookKernel{
		fakeKernel: &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()},
		onExecute: func() {
			started <- struct{}{}
			<-gate
		},
	}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}
	invDone := make(chan error, 1)
	go func() {
		_, _, err := s.Invoke(context.Background(), "k", nil)
		invDone <- err
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("invocation never reached the kernel")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with blocked work = %v, want DeadlineExceeded", err)
	}
	// The cut-short drain fenced, not dropped, the invocation.
	close(gate)
	select {
	case err := <-invDone:
		if err != nil {
			t.Errorf("invocation failed after forced drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fenced invocation never finished")
	}
}

// TestTCPDrainCompletesInFlight: TCPServer.Drain stops accepting new
// connections but lets the invocation already being served finish and
// deliver its reply.
func TestTCPDrainCompletesInFlight(t *testing.T) {
	clock := vclock.Scaled(1000)
	host, err := accel.NewHost(clock, "node", accel.XeonE52698, accel.TeslaP100)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	t.Cleanup(host.Close)
	srv, err := New(Config{Clock: clock, Host: host})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(srv.Close)
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	k := &execHookKernel{
		fakeKernel: &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()},
		onExecute: func() {
			started <- struct{}{}
			<-gate
		},
	}
	if err := srv.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}
	tcp, err := ServeTCP(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServeTCP: %v", err)
	}
	t.Cleanup(func() { tcp.Close() })

	conn := dialWire(t, tcp.Addr())
	if err := wire.Write(conn, &wire.Message{
		Type:   wire.MsgInvoke,
		Header: wire.Header{Kernel: "k"},
	}); err != nil {
		t.Fatalf("write: %v", err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("invocation never reached the kernel")
	}

	drainDone := make(chan error, 1)
	go func() { drainDone <- tcp.Drain(context.Background()) }()

	// New connections stop being accepted once the listener is down.
	waitFor(t, 2*time.Second, func() bool {
		c, err := net.DialTimeout("tcp", tcp.Addr(), 100*time.Millisecond)
		if err != nil {
			return true
		}
		c.Close()
		return false
	}, "listener to stop accepting")

	// The in-flight invocation still gets its reply.
	close(gate)
	reply, err := wire.Read(conn)
	if err != nil {
		t.Fatalf("read during drain: %v", err)
	}
	if reply.Type != wire.MsgResult {
		t.Fatalf("reply = %s (%s), want result", reply.Type, reply.Header.Error)
	}
	select {
	case err := <-drainDone:
		if err != nil {
			t.Errorf("TCP Drain = %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("TCP drain never finished after the reply was delivered")
	}
}

// TestUnavailableWhenEveryBreakerOpen: with every device of the kind
// behind an open breaker, an invocation fails fast with ErrUnavailable
// instead of queueing against capacity that cannot exist.
func TestUnavailableWhenEveryBreakerOpen(t *testing.T) {
	s, host, _ := newTestServer(t, 1, func(c *Config) {
		c.BreakerThreshold = 1
		c.BreakerOpenTimeout = time.Hour // modeled: never recovers in-test
	})
	k := &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}
	host.Devices()[0].Fail()
	// The first invocation's cold start fails against the dead device and
	// trips its breaker (threshold 1); the failover attempt then finds no
	// eligible device left, so the invocation itself already surfaces
	// ErrUnavailable.
	if _, _, err := s.Invoke(context.Background(), "k", nil); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("first invoke err = %v, want ErrUnavailable", err)
	}
	if got := s.breakers.State(host.Devices()[0].ID()); got != breaker.Open {
		t.Fatalf("breaker state after failed cold start = %v, want open", got)
	}
	start := time.Now()
	_, _, err := s.Invoke(context.Background(), "k", nil)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("second invoke err = %v, want ErrUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("ErrUnavailable took %v, want immediate", elapsed)
	}
}
