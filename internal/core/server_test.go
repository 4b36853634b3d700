package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"kaas/internal/accel"
	"kaas/internal/kernels"
	"kaas/internal/vclock"
)

// fakeKernel is a controllable kernel for server tests.
type fakeKernel struct {
	name    string
	kind    accel.Kind
	cost    kernels.Cost
	execErr error
	costErr error

	mu    sync.Mutex
	execs int
}

var _ kernels.Kernel = (*fakeKernel)(nil)

func (f *fakeKernel) Name() string     { return f.name }
func (f *fakeKernel) Kind() accel.Kind { return f.kind }

func (f *fakeKernel) Cost(*kernels.Request) (kernels.Cost, error) {
	if f.costErr != nil {
		return kernels.Cost{}, f.costErr
	}
	return f.cost, nil
}

func (f *fakeKernel) Execute(*kernels.Request) (*kernels.Response, error) {
	f.mu.Lock()
	f.execs++
	f.mu.Unlock()
	if f.execErr != nil {
		return nil, f.execErr
	}
	return &kernels.Response{Values: map[string]float64{"ok": 1}}, nil
}

func (f *fakeKernel) executions() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.execs
}

// testGPUProfile returns a fast GPU profile for server tests.
func testGPUProfile() accel.Profile {
	return accel.Profile{
		Name:           "test GPU",
		Kind:           accel.GPU,
		RuntimeInit:    400 * time.Millisecond,
		LibraryInit:    500 * time.Millisecond,
		LaunchOverhead: time.Millisecond,
		ComputeRate:    1e9,
		CopyBandwidth:  1e9,
		Slots:          8,
		MemoryBytes:    1 << 30,
		IdlePower:      30,
		BusyPower:      250,
	}
}

// newTestServer builds a server over nGPUs test GPUs at the given scale.
func newTestServer(t *testing.T, nGPUs int, mutate func(*Config)) (*Server, *accel.Host, vclock.Clock) {
	t.Helper()
	clock := vclock.Scaled(5000)
	profiles := make([]accel.Profile, nGPUs)
	for i := range profiles {
		profiles[i] = testGPUProfile()
	}
	cpu := accel.XeonE52698
	host, err := accel.NewHost(clock, "test", cpu, profiles...)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	t.Cleanup(host.Close)
	cfg := Config{Clock: clock, Host: host}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	return s, host, clock
}

func stdCost() kernels.Cost {
	return kernels.Cost{Work: 1e8, BytesIn: 1e6, BytesOut: 1e6, DeviceMemory: 1 << 20}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without clock succeeded")
	}
	if _, err := New(Config{Clock: vclock.Real()}); err == nil {
		t.Error("New without host succeeded")
	}
}

func TestRegisterValidation(t *testing.T) {
	s, _, _ := newTestServer(t, 1, nil)
	k := &fakeKernel{name: "k1", kind: accel.GPU, cost: stdCost()}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := s.Register(k); !errors.Is(err, ErrAlreadyRegistered) {
		t.Errorf("duplicate register err = %v, want ErrAlreadyRegistered", err)
	}
	fpga := &fakeKernel{name: "k2", kind: accel.FPGA, cost: stdCost()}
	if err := s.Register(fpga); !errors.Is(err, ErrNoDevice) {
		t.Errorf("missing-device register err = %v, want ErrNoDevice", err)
	}
	if err := s.Register(nil); err == nil {
		t.Error("Register(nil) succeeded")
	}
	names := s.Kernels()
	if len(names) != 1 || names[0] != "k1" {
		t.Errorf("Kernels = %v", names)
	}
}

func TestRegisterPaysLibraryInitOncePerKind(t *testing.T) {
	s, _, clock := newTestServer(t, 1, nil)
	start := clock.Now()
	if err := s.Register(&fakeKernel{name: "a", kind: accel.GPU, cost: stdCost()}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	first := clock.Now().Sub(start)
	if first < 400*time.Millisecond {
		t.Errorf("first registration took %v, want >= LibraryInit (500ms)", first)
	}
	start = clock.Now()
	if err := s.Register(&fakeKernel{name: "b", kind: accel.GPU, cost: stdCost()}); err != nil {
		t.Fatalf("Register: %v", err)
	}
	second := clock.Now().Sub(start)
	if second > 200*time.Millisecond {
		t.Errorf("second registration took %v, want fast (library warm)", second)
	}
}

func TestInvokeUnknownKernel(t *testing.T) {
	s, _, _ := newTestServer(t, 1, nil)
	if _, _, err := s.Invoke(context.Background(), "nope", nil); !errors.Is(err, ErrUnknownKernel) {
		t.Errorf("err = %v, want ErrUnknownKernel", err)
	}
}

func TestColdThenWarmInvocation(t *testing.T) {
	s, _, _ := newTestServer(t, 1, nil)
	k := &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}

	resp, rep, err := s.Invoke(context.Background(), "k", nil)
	if err != nil {
		t.Fatalf("cold Invoke: %v", err)
	}
	if !rep.Cold {
		t.Error("first invocation not cold")
	}
	if rep.Breakdown.RuntimeInit < 300*time.Millisecond {
		t.Errorf("cold RuntimeInit = %v, want >= 300ms", rep.Breakdown.RuntimeInit)
	}
	if rep.Breakdown.Spawn <= 0 {
		t.Error("cold start has zero spawn cost")
	}
	if resp.Values["ok"] != 1 {
		t.Errorf("response = %v", resp.Values)
	}

	_, rep2, err := s.Invoke(context.Background(), "k", nil)
	if err != nil {
		t.Fatalf("warm Invoke: %v", err)
	}
	if rep2.Cold {
		t.Error("second invocation cold, want warm")
	}
	if rep2.Breakdown.RuntimeInit != 0 || rep2.Breakdown.Spawn != 0 {
		t.Errorf("warm invocation paid init: %+v", rep2.Breakdown)
	}
	if rep2.Total() >= rep.Total() {
		t.Errorf("warm total %v not faster than cold %v", rep2.Total(), rep.Total())
	}
	if k.executions() != 2 {
		t.Errorf("executions = %d, want 2", k.executions())
	}
	if rep2.Device == "" || rep2.Runner == "" {
		t.Error("report missing device/runner")
	}
}

func TestAutoscalerSpawnsRunnersUnderLoad(t *testing.T) {
	s, _, _ := newTestServer(t, 4, func(c *Config) {
		c.MaxInFlightPerRunner = 2
	})
	k := &fakeKernel{name: "k", kind: accel.GPU,
		cost: kernels.Cost{Work: 5e9, BytesIn: 1000, BytesOut: 1000}} // ~5s kernels
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}

	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := s.Invoke(context.Background(), "k", nil); err != nil {
				t.Errorf("Invoke: %v", err)
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	// 8 concurrent clients at threshold 2 need up to 4 runners; at least
	// 2 must have been started.
	if st.ColdStarts < 2 {
		t.Errorf("ColdStarts = %d, want >= 2", st.ColdStarts)
	}
	if st.ColdStarts > 4 {
		t.Errorf("ColdStarts = %d, want <= 4 runners for 8 clients", st.ColdStarts)
	}
	if st.InFlight != 0 {
		t.Errorf("InFlight = %d after completion", st.InFlight)
	}
}

func TestRunnerReaperScalesDown(t *testing.T) {
	s, _, _ := newTestServer(t, 2, func(c *Config) {
		c.KeepAlive.Idle = 2 * time.Second
	})
	k := &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, _, err := s.Invoke(context.Background(), "k", nil); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	// The idle timeout is 2 modeled s, 0.4 wall ms at scale 5000, so the
	// runner may be reaped before any read here. Either way the call made
	// exactly one runner, and it is in the pool or counted as reaped.
	// Stats reads the pool and the reap counter a moment apart, so one
	// read can straddle a reap; the pair settles at once.
	if st := s.Stats(); st.ColdStarts != 1 {
		t.Fatalf("ColdStarts = %d, want 1", st.ColdStarts)
	}
	waitFor(t, 2*time.Second, func() bool {
		st := s.Stats()
		return st.Runners+int(st.Reaps) == 1
	}, "Runners + Reaps == 1")
	// Wait past the idle timeout in modeled time (wait generously in
	// wall time): the pool scales down to zero.
	waitFor(t, 2*time.Second, func() bool {
		st := s.Stats()
		return st.Runners == 0 && st.Reaps == 1
	}, "the idle runner to be reaped")
	// Next invocation is cold again.
	_, rep, err := s.Invoke(context.Background(), "k", nil)
	if err != nil {
		t.Fatalf("Invoke after reap: %v", err)
	}
	if !rep.Cold {
		t.Error("invocation after reap not cold")
	}
}

func TestExecuteErrorPropagates(t *testing.T) {
	s, _, _ := newTestServer(t, 1, nil)
	k := &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost(),
		execErr: errors.New("boom")}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, _, err := s.Invoke(context.Background(), "k", nil); err == nil {
		t.Error("Invoke with failing kernel succeeded")
	}
	// The runner survives; a subsequent good invocation works warm.
	k.execErr = nil
	_, rep, err := s.Invoke(context.Background(), "k", nil)
	if err != nil {
		t.Fatalf("Invoke after failure: %v", err)
	}
	if rep.Cold {
		t.Error("runner did not survive a kernel failure")
	}
}

func TestCostErrorPropagates(t *testing.T) {
	s, _, _ := newTestServer(t, 1, nil)
	k := &fakeKernel{name: "k", kind: accel.GPU, costErr: errors.New("bad params")}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, _, err := s.Invoke(context.Background(), "k", nil); err == nil {
		t.Error("Invoke with failing cost model succeeded")
	}
}

func TestDeviceMemoryExhaustion(t *testing.T) {
	s, _, _ := newTestServer(t, 1, nil)
	k := &fakeKernel{name: "k", kind: accel.GPU,
		cost: kernels.Cost{Work: 1e6, DeviceMemory: 2 << 30}} // > 1 GiB device
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, _, err := s.Invoke(context.Background(), "k", nil); !errors.Is(err, accel.ErrOutOfMemory) {
		t.Errorf("err = %v, want ErrOutOfMemory", err)
	}
}

// TestComputeResultsToggle: Config.DisableCompute skips the kernel's
// real host computation; without it every invocation executes.
func TestComputeResultsToggle(t *testing.T) {
	for _, tc := range []struct {
		disable bool
		want    int
	}{{true, 0}, {false, 1}} {
		s, _, _ := newTestServer(t, 1, func(c *Config) { c.DisableCompute = tc.disable })
		k := &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()}
		if err := s.Register(k); err != nil {
			t.Fatalf("Register: %v", err)
		}
		if _, _, err := s.Invoke(context.Background(), "k", nil); err != nil {
			t.Fatalf("Invoke: %v", err)
		}
		if got := k.executions(); got != tc.want {
			t.Errorf("DisableCompute=%v: executions = %d, want %d", tc.disable, got, tc.want)
		}
	}
}

func TestRealKernelThroughServer(t *testing.T) {
	s, _, _ := newTestServer(t, 1, nil)
	mm := kernels.NewMatMul(accel.GPU)
	if err := s.Register(mm); err != nil {
		t.Fatalf("Register: %v", err)
	}
	resp, _, err := s.Invoke(context.Background(), "matmul",
		&kernels.Request{Params: kernels.Params{"n": 64, "seed": 3}})
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	if resp.Values["checksum"] <= 0 {
		t.Errorf("checksum = %v, want > 0", resp.Values["checksum"])
	}
	// The server result matches direct kernel execution.
	direct, err := mm.Execute(&kernels.Request{Params: kernels.Params{"n": 64, "seed": 3}})
	if err != nil {
		t.Fatalf("direct Execute: %v", err)
	}
	if resp.Values["checksum"] != direct.Values["checksum"] {
		t.Error("server result differs from direct execution")
	}
}

func TestCloseRejectsFurtherWork(t *testing.T) {
	s, _, _ := newTestServer(t, 1, nil)
	k := &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, _, err := s.Invoke(context.Background(), "k", nil); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	s.Close()
	s.Close() // idempotent
	if _, _, err := s.Invoke(context.Background(), "k", nil); !errors.Is(err, ErrServerClosed) {
		t.Errorf("err = %v, want ErrServerClosed", err)
	}
	if err := s.Register(&fakeKernel{name: "k2", kind: accel.GPU}); !errors.Is(err, ErrServerClosed) {
		t.Errorf("register after close err = %v, want ErrServerClosed", err)
	}
}

func TestManyKernelsShareDevices(t *testing.T) {
	s, _, _ := newTestServer(t, 2, func(c *Config) {
		c.MaxRunnersPerDevice = 4
	})
	for i := 0; i < 4; i++ {
		k := &fakeKernel{name: fmt.Sprintf("k%d", i), kind: accel.GPU, cost: stdCost()}
		if err := s.Register(k); err != nil {
			t.Fatalf("Register k%d: %v", i, err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("k%d", i)
			if _, _, err := s.Invoke(context.Background(), name, nil); err != nil {
				t.Errorf("Invoke %s: %v", name, err)
			}
		}()
	}
	wg.Wait()
	st := s.Stats()
	if st.Runners != 4 {
		t.Errorf("Runners = %d, want 4 (one per kernel)", st.Runners)
	}
	if st.Kernels != 4 {
		t.Errorf("Kernels = %d, want 4", st.Kernels)
	}
}

// TestIdleRunnerEvictionOnSlotPressure: on a single-slot device, a second
// kernel's cold start must evict the first kernel's idle runner instead
// of deadlocking.
func TestIdleRunnerEvictionOnSlotPressure(t *testing.T) {
	clock := vclock.Scaled(5000)
	fpga := testGPUProfile()
	fpga.Kind = accel.FPGA
	fpga.Slots = 1
	host, err := accel.NewHost(clock, "test", accel.XeonE52698, fpga)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	t.Cleanup(host.Close)
	s, err := New(Config{Clock: clock, Host: host})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)

	k1 := &fakeKernel{name: "k1", kind: accel.FPGA, cost: stdCost()}
	k2 := &fakeKernel{name: "k2", kind: accel.FPGA, cost: stdCost()}
	if err := s.Register(k1); err != nil {
		t.Fatalf("Register k1: %v", err)
	}
	if err := s.Register(k2); err != nil {
		t.Fatalf("Register k2: %v", err)
	}

	if _, _, err := s.Invoke(context.Background(), "k1", nil); err != nil {
		t.Fatalf("Invoke k1: %v", err)
	}
	// k2's cold start needs the only slot; k1's idle runner is evicted.
	done := make(chan error, 1)
	go func() {
		_, _, err := s.Invoke(context.Background(), "k2", nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Invoke k2: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("k2 invocation deadlocked on the single slot")
	}
	// And back: k1 is cold again (its runner was evicted) but succeeds.
	_, rep, err := s.Invoke(context.Background(), "k1", nil)
	if err != nil {
		t.Fatalf("re-Invoke k1: %v", err)
	}
	if !rep.Cold {
		t.Error("k1 should be cold after eviction")
	}
}

// TestFailoverOnDeviceFailure: when a runner's device fails mid-service,
// the invocation retries on a healthy device transparently.
func TestFailoverOnDeviceFailure(t *testing.T) {
	s, host, _ := newTestServer(t, 2, nil)
	k := &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}
	// Warm a runner on the first device.
	_, rep, err := s.Invoke(context.Background(), "k", nil)
	if err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	firstDevice := rep.Device

	// Fail that device; the next invocation must succeed elsewhere.
	dev, ok := host.Device(firstDevice)
	if !ok {
		t.Fatalf("device %q not found", firstDevice)
	}
	dev.Fail()
	resp, rep2, err := s.Invoke(context.Background(), "k", nil)
	if err != nil {
		t.Fatalf("Invoke after failure: %v", err)
	}
	if resp.Values["ok"] != 1 {
		t.Errorf("response = %v", resp.Values)
	}
	if rep2.Device == firstDevice {
		t.Errorf("failover stayed on failed device %q", rep2.Device)
	}
	if !rep2.Cold {
		t.Error("failover invocation should report cold")
	}
	// The failed device's runner is gone; only the new one remains.
	if st := s.Stats(); st.RunnersPerDevice[firstDevice] != 0 {
		t.Errorf("failed device still hosts %d runners", st.RunnersPerDevice[firstDevice])
	}

	// Repairing the device makes it placeable again.
	dev.Repair()
	if dev.Failed() {
		t.Error("Repair did not clear failure")
	}
}

// TestFailoverExhaustsHealthyDevices: if every device of the kind has
// failed, the invocation reports the failure instead of looping.
func TestFailoverExhaustsHealthyDevices(t *testing.T) {
	s, host, _ := newTestServer(t, 1, nil)
	k := &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, _, err := s.Invoke(context.Background(), "k", nil); err != nil {
		t.Fatalf("Invoke: %v", err)
	}
	host.Devices()[0].Fail()
	if _, _, err := s.Invoke(context.Background(), "k", nil); !errors.Is(err, accel.ErrDeviceFailed) {
		t.Errorf("err = %v, want ErrDeviceFailed", err)
	}
}
