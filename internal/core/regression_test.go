package core

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"kaas/internal/accel"
	"kaas/internal/kernels"
	"kaas/internal/vclock"
)

// hookClock wraps a Clock and calls onSleep before every Sleep, letting
// tests inject device state changes at precise points in the modeled
// timeline (e.g. repair a device during the runner spawn sleep).
type hookClock struct {
	vclock.Clock
	onSleep func(time.Duration)
}

func (h *hookClock) Sleep(d time.Duration) {
	if h.onSleep != nil {
		h.onSleep(d)
	}
	h.Clock.Sleep(d)
}

// execHookKernel runs a hook on every Execute, so a test can fail the
// device mid-service (after Exec, before the output copy).
type execHookKernel struct {
	*fakeKernel
	onExecute func()
}

func (k *execHookKernel) Execute(req *kernels.Request) (*kernels.Response, error) {
	if k.onExecute != nil {
		k.onExecute()
	}
	return k.fakeKernel.Execute(req)
}

// TestFailoverBoundedOnFlappingDevice: a device that recovers during each
// cold start and fails again mid-service used to bounce the invocation
// between failover and cold start forever (the failover path had no
// attempt bound). The retry budget is one attempt per device of the kind
// on top of the first, after which the invocation fails with an error
// wrapping accel.ErrDeviceFailed.
func TestFailoverBoundedOnFlappingDevice(t *testing.T) {
	hc := &hookClock{Clock: vclock.Scaled(5000)}
	host, err := accel.NewHost(hc, "test", accel.XeonE52698, testGPUProfile())
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	t.Cleanup(host.Close)
	dev := host.Devices()[0]

	// The device flaps: healthy through every cold start (repaired during
	// the distinctive spawn sleep), failed again by every Execute.
	const spawnCost = 31 * time.Millisecond
	hc.onSleep = func(d time.Duration) {
		if d == spawnCost {
			dev.Repair()
		}
	}
	s, err := New(Config{Clock: hc, Host: host, RunnerSpawnCost: spawnCost})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)

	k := &execHookKernel{
		fakeKernel: &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()},
		onExecute:  dev.Fail,
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
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("invocation still bouncing between failover and cold start after 10s")
	}
	if !errors.Is(err, accel.ErrDeviceFailed) {
		t.Fatalf("err = %v, want ErrDeviceFailed", err)
	}
	if !strings.Contains(err.Error(), "failover exhausted") {
		t.Errorf("err = %v, want mention of exhausted failover budget", err)
	}
	// One attempt per device of the kind plus the first: 2 for one GPU.
	if got := k.executions(); got != 2 {
		t.Errorf("kernel executed %d times, want 2 (bounded retries)", got)
	}
}

// TestInvokeFailsPromptlyWhenEveryDeviceDown: with the kernel's only
// device failed before any runner exists, the cold start cannot acquire a
// context and the invocation must fail with ErrDeviceFailed after the
// bounded retries, not hang or loop.
func TestInvokeFailsPromptlyWhenEveryDeviceDown(t *testing.T) {
	s, host, _ := newTestServer(t, 1, nil)
	k := &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}
	host.Devices()[0].Fail()

	done := make(chan error, 1)
	go func() {
		_, _, err := s.Invoke(context.Background(), "k", nil)
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("invocation against an all-failed host did not return")
	}
	if !errors.Is(err, accel.ErrDeviceFailed) {
		t.Errorf("err = %v, want ErrDeviceFailed", err)
	}
	if st := s.Stats(); st.Runners != 0 {
		t.Errorf("Runners = %d after failed cold starts, want 0", st.Runners)
	}
}

// newSingleSlotServer builds a server over one single-slot GPU, the
// tightest device shape for cold-start contention tests.
func newSingleSlotServer(t *testing.T) (*Server, *accel.Host) {
	t.Helper()
	clock := vclock.Scaled(5000)
	gpu := testGPUProfile()
	gpu.Slots = 1
	host, err := accel.NewHost(clock, "test", accel.XeonE52698, gpu)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	t.Cleanup(host.Close)
	s, err := New(Config{Clock: clock, Host: host})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s, host
}

// TestColdStartHonorsCallerContext: a cold start blocked on a saturated
// device must give up when the invocation's context does, instead of
// waiting forever on a background context, and must not leak the
// half-started runner.
func TestColdStartHonorsCallerContext(t *testing.T) {
	s, host := newSingleSlotServer(t)
	k := &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}

	// Hold the device's only slot outside the server's control, so the
	// cold start has nothing to evict and nowhere to go.
	dctx, err := host.Devices()[0].Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer dctx.Release()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, _, err := s.Invoke(ctx, "k", nil)
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cold start ignored the caller's context and blocked on the held slot")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
	if st := s.Stats(); st.Runners != 0 {
		t.Errorf("Runners = %d after abandoned cold start, want 0 (runner leaked)", st.Runners)
	}

	// An already-cancelled context never starts paying for the spawn.
	cancelled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, _, err := s.Invoke(cancelled, "k", nil); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled invoke err = %v, want Canceled", err)
	}
	if st := s.Stats(); st.Runners != 0 {
		t.Errorf("Runners = %d after pre-cancelled invoke, want 0", st.Runners)
	}
}

// TestConcurrentColdStartsOnSingleSlotDevice: two invocations that both
// pass the slot-pressure check but find only one evictable idle runner
// used to strand the loser in an unbounded Acquire; the eviction must be
// retried around a bounded wait so both complete.
func TestConcurrentColdStartsOnSingleSlotDevice(t *testing.T) {
	s, _ := newSingleSlotServer(t)
	for _, name := range []string{"ka", "kb", "kc"} {
		k := &fakeKernel{name: name, kind: accel.GPU, cost: stdCost()}
		if err := s.Register(k); err != nil {
			t.Fatalf("Register %s: %v", name, err)
		}
	}
	// Warm an idle runner of ka: it holds the only slot.
	if _, _, err := s.Invoke(context.Background(), "ka", nil); err != nil {
		t.Fatalf("Invoke ka: %v", err)
	}

	// kb and kc cold-start concurrently. Both see the device saturated;
	// only one finds ka's idle runner to evict. The loser must keep
	// retrying eviction (against the winner's runner once it idles)
	// rather than deadlock.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, name := range []string{"kb", "kc"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = s.Invoke(context.Background(), name, nil)
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent cold starts deadlocked on the single slot")
	}
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent invocation %d: %v", i, err)
		}
	}
}

// TestOverbookRotationSpreadsLoad: when every runner is saturated and no
// device has capacity, overbooked invocations must rotate through the
// pool instead of repeatedly landing on the runner after the stale
// rotation point.
func TestOverbookRotationSpreadsLoad(t *testing.T) {
	s, _, _ := newTestServer(t, 3, func(c *Config) {
		c.MaxInFlightPerRunner = 1
		c.MaxRunnersPerDevice = 1
	})
	k := &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}

	e := (*s.table.Load())["k"]
	// Saturate: three spawner picks place one runner per device, each at
	// the in-flight cap.
	for i := 0; i < 3; i++ {
		if _, spawner, _ := e.claim(); !spawner {
			t.Fatalf("pick %d reused a runner, want a new one per device", i)
		}
	}
	// Every further pick overbooks. Each simulated invocation completes
	// immediately, so all runners stay tied at the cap: only the rotation
	// point decides who gets the work.
	counts := make(map[string]int)
	for i := 0; i < 6; i++ {
		r, spawner, err := e.claim()
		if err != nil || spawner {
			t.Fatalf("overbook pick %d = spawner %v, %v; want an existing runner", i, spawner, err)
		}
		counts[r.id]++
		e.mu.Lock()
		r.inflight--
		e.mu.Unlock()
	}
	if len(counts) != 3 {
		t.Fatalf("overbooking used %d runners, want all 3: %v", len(counts), counts)
	}
	for id, n := range counts {
		if n != 2 {
			t.Errorf("runner %s served %d overbooked invocations, want 2 (rotation stalled)", id, n)
		}
	}
}
