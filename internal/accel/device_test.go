package accel

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"kaas/internal/vclock"
)

// testProfile is a small fast profile for unit tests.
func testProfile() Profile {
	return Profile{
		Name:           "test-gpu",
		Kind:           GPU,
		RuntimeInit:    100 * time.Millisecond,
		LibraryInit:    200 * time.Millisecond,
		LaunchOverhead: time.Millisecond,
		ComputeRate:    1000, // work units/s
		CopyBandwidth:  1e6,  // bytes/s
		CopyLatency:    time.Millisecond,
		Slots:          2,
		MemoryBytes:    1 << 20,
		IdlePower:      10,
		BusyPower:      110,
	}
}

func testDevice(t *testing.T, p Profile) *Device {
	t.Helper()
	d, err := NewDevice(vclock.Scaled(10000), "test/gpu0", p)
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	t.Cleanup(d.Close)
	return d
}

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{CPU, "CPU"}, {GPU, "GPU"}, {FPGA, "FPGA"}, {TPU, "TPU"}, {QPU, "QPU"},
		{Kind(42), "Kind(42)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(tt.k), got, tt.want)
		}
	}
}

func TestProfileValidate(t *testing.T) {
	good := testProfile()
	if err := good.Validate(); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"no name", func(p *Profile) { p.Name = "" }},
		{"no kind", func(p *Profile) { p.Kind = 0 }},
		{"zero compute", func(p *Profile) { p.ComputeRate = 0 }},
		{"zero bandwidth", func(p *Profile) { p.CopyBandwidth = 0 }},
		{"negative slots", func(p *Profile) { p.Slots = -1 }},
		{"negative memory", func(p *Profile) { p.MemoryBytes = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := testProfile()
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Error("Validate() = nil, want error")
			}
		})
	}
}

func TestPredefinedProfilesValid(t *testing.T) {
	for _, p := range []Profile{
		TeslaP100, TeslaV100, NvidiaA100, AlveoU250, TPUv3Chip,
		AerSimulatorHost, FalconR4T, FalconR511H, XeonE52698, EPYC7513,
	} {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %q invalid: %v", p.Name, err)
		}
	}
}

func TestAcquirePaysRuntimeInit(t *testing.T) {
	clock := vclock.Scaled(10000)
	d, err := NewDevice(clock, "t/gpu0", testProfile())
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	defer d.Close()

	start := clock.Now()
	c, err := d.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer c.Release()
	elapsed := clock.Now().Sub(start)
	if elapsed < 100*time.Millisecond {
		t.Errorf("Acquire took %v modeled, want >= RuntimeInit (100ms)", elapsed)
	}
	if got := d.Stats().ColdStarts; got != 1 {
		t.Errorf("ColdStarts = %d, want 1", got)
	}
}

func TestSlotsLimitConcurrentContexts(t *testing.T) {
	d := testDevice(t, testProfile()) // Slots: 2
	c1, err := d.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire 1: %v", err)
	}
	c2, err := d.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire 2: %v", err)
	}

	// Third Acquire must block until a release.
	acquired := make(chan *Context, 1)
	go func() {
		c, err := d.Acquire(context.Background())
		if err != nil {
			t.Errorf("Acquire 3: %v", err)
			return
		}
		acquired <- c
	}()
	select {
	case <-acquired:
		t.Fatal("third Acquire succeeded while both slots held")
	case <-time.After(20 * time.Millisecond):
	}
	c1.Release()
	select {
	case c3 := <-acquired:
		c3.Release()
	case <-time.After(2 * time.Second):
		t.Fatal("third Acquire did not proceed after Release")
	}
	c2.Release()
	if got := d.Stats().ActiveContexts; got != 0 {
		t.Errorf("ActiveContexts = %d, want 0", got)
	}
}

// TestSlotTakenWhileRuntimeInit: a context's slot counts as taken from
// the moment it is claimed, while RuntimeInit is still being paid, not
// only once the context is handed out. A server deciding whether the
// device is full must see an initializing context, or a second cold
// start on a full device waits out the first one's init.
func TestSlotTakenWhileRuntimeInit(t *testing.T) {
	p := testProfile()
	p.RuntimeInit = 5 * time.Second // 500ms of wall time at scale 10
	d, err := NewDevice(vclock.Scaled(10), "t/gpu0", p)
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	defer d.Close()

	done := make(chan struct{})
	var c *Context
	go func() {
		defer close(done)
		var err error
		if c, err = d.Acquire(context.Background()); err != nil {
			t.Errorf("Acquire: %v", err)
		}
	}()
	// Read the count, then check the Acquire is still in RuntimeInit:
	// a count of 1 read before Acquire returned is an initializing slot.
	for {
		taken := d.SlotsTaken()
		select {
		case <-done:
			if c != nil {
				c.Release()
			}
			t.Fatal("Acquire returned before its slot was seen taken")
		default:
		}
		if taken == 1 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	<-done
	if c == nil {
		t.FailNow()
	}
	if got := d.SlotsTaken(); got != 1 {
		t.Errorf("SlotsTaken with one context held = %d, want 1", got)
	}
	c.Release()
	if got := d.SlotsTaken(); got != 0 {
		t.Errorf("SlotsTaken after Release = %d, want 0", got)
	}
}

func TestAcquireRespectsContextCancel(t *testing.T) {
	p := testProfile()
	p.Slots = 1
	d := testDevice(t, p)
	c1, err := d.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer c1.Release()

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := d.Acquire(ctx)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Acquire did not honor cancel")
	}
}

// TestAcquireWithinBoundsTheWait: AcquireWithin takes a free slot even
// under a cancelled context, ends a wait on a full device with
// DeadlineExceeded once its bound passes and with ctx.Err() when ctx is
// cancelled first, and takes a slot released while it waits.
func TestAcquireWithinBoundsTheWait(t *testing.T) {
	p := testProfile()
	p.Slots = 1
	d := testDevice(t, p)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	c1, err := d.AcquireWithin(cancelled, time.Hour)
	if err != nil {
		t.Fatalf("AcquireWithin on a free slot with a cancelled context: %v", err)
	}

	start := time.Now()
	if _, err := d.AcquireWithin(context.Background(), 20*time.Millisecond); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("wait on a full device = %v, want DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Errorf("wait on a full device ended after %v, before its 20ms bound", waited)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := d.AcquireWithin(ctx, time.Hour)
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled wait = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("AcquireWithin did not honor cancel")
	}

	got := make(chan *Context, 1)
	go func() {
		c, err := d.AcquireWithin(context.Background(), time.Hour)
		if err != nil {
			t.Errorf("wait for a released slot: %v", err)
		}
		got <- c
	}()
	time.Sleep(10 * time.Millisecond)
	c1.Release()
	select {
	case c := <-got:
		if c != nil {
			c.Release()
		}
	case <-time.After(2 * time.Second):
		t.Fatal("AcquireWithin did not take the released slot")
	}
	if st := d.Stats(); st.ActiveContexts != 0 || st.ColdStarts != 2 {
		t.Errorf("Stats = %+v, want 0 active contexts after 2 cold starts", st)
	}
}

func TestExecDuration(t *testing.T) {
	d := testDevice(t, testProfile())
	c, err := d.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer c.Release()

	// 500 units at 1000/s = 500ms + 1ms launch.
	elapsed, err := c.Exec(context.Background(), 500)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	want := 501 * time.Millisecond
	if math.Abs(float64(elapsed-want)) > 0.2*float64(want) {
		t.Errorf("Exec = %v, want ~%v", elapsed, want)
	}
}

func TestExecBatchAmortizesLaunchOverhead(t *testing.T) {
	d := testDevice(t, testProfile())
	c, err := d.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer c.Release()

	// Four 125-unit members at 1000/s = 500ms compute + ONE 1ms launch,
	// where four separate Execs would pay the launch four times.
	elapsed, err := c.ExecBatch(context.Background(), []float64{125, 125, 125, 125})
	if err != nil {
		t.Fatalf("ExecBatch: %v", err)
	}
	want := 501 * time.Millisecond
	if math.Abs(float64(elapsed-want)) > 0.2*float64(want) {
		t.Errorf("ExecBatch = %v, want ~%v", elapsed, want)
	}

	if _, err := c.ExecBatch(context.Background(), nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
	if _, err := c.ExecBatch(context.Background(), []float64{10, -1}); err == nil {
		t.Error("negative member work accepted, want error")
	}
}

func TestCopyDuration(t *testing.T) {
	d := testDevice(t, testProfile())
	c, err := d.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	defer c.Release()

	// 500,000 bytes at 1e6 B/s = 500ms + 1ms latency.
	elapsed, err := c.Copy(context.Background(), 500000)
	if err != nil {
		t.Fatalf("Copy: %v", err)
	}
	want := 501 * time.Millisecond
	if math.Abs(float64(elapsed-want)) > 0.2*float64(want) {
		t.Errorf("Copy = %v, want ~%v", elapsed, want)
	}
}

func TestExecContention(t *testing.T) {
	// Use a modest scale so wall-clock goroutine launch skew is
	// negligible in modeled time and both kernels truly overlap: at 50 a
	// millisecond of skew on a loaded machine is 50 modeled ms.
	d, err := NewDevice(vclock.Scaled(50), "t/gpu0", testProfile())
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	t.Cleanup(d.Close)
	c1, _ := d.Acquire(context.Background())
	defer c1.Release()
	c2, _ := d.Acquire(context.Background())
	defer c2.Release()

	// Two concurrent 500-unit kernels share the fabric: ~1s each.
	var wg sync.WaitGroup
	durations := make([]time.Duration, 2)
	for i, c := range []*Context{c1, c2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dur, err := c.Exec(context.Background(), 500)
			if err != nil {
				t.Errorf("Exec: %v", err)
			}
			durations[i] = dur
		}()
	}
	wg.Wait()
	for i, dur := range durations {
		if dur < 800*time.Millisecond {
			t.Errorf("kernel %d = %v, want ~1s under contention", i, dur)
		}
	}
}

func TestMemoryAccounting(t *testing.T) {
	d := testDevice(t, testProfile()) // 1 MiB
	c, _ := d.Acquire(context.Background())
	defer c.Release()

	if err := c.Alloc(512 << 10); err != nil {
		t.Fatalf("Alloc 512K: %v", err)
	}
	if err := c.Alloc(1 << 20); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("over-alloc err = %v, want ErrOutOfMemory", err)
	}
	if got := d.Stats().MemoryUsed; got != 512<<10 {
		t.Errorf("MemoryUsed = %d, want %d", got, 512<<10)
	}
	c.Free(256 << 10)
	if got := d.Stats().MemoryUsed; got != 256<<10 {
		t.Errorf("MemoryUsed after Free = %d, want %d", got, 256<<10)
	}
	if err := c.Alloc(-1); err == nil {
		t.Error("Alloc(-1) succeeded, want error")
	}
}

func TestReleaseReturnsMemory(t *testing.T) {
	d := testDevice(t, testProfile())
	c, _ := d.Acquire(context.Background())
	if err := c.Alloc(512 << 10); err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	c.Release()
	if got := d.Stats().MemoryUsed; got != 0 {
		t.Errorf("MemoryUsed after Release = %d, want 0", got)
	}
	// Double release is harmless.
	c.Release()
	// Use after release fails.
	if _, err := c.Exec(context.Background(), 1); !errors.Is(err, ErrContextReleased) {
		t.Errorf("Exec after release = %v, want ErrContextReleased", err)
	}
	if _, err := c.Copy(context.Background(), 1); !errors.Is(err, ErrContextReleased) {
		t.Errorf("Copy after release = %v, want ErrContextReleased", err)
	}
	if err := c.Alloc(1); !errors.Is(err, ErrContextReleased) {
		t.Errorf("Alloc after release = %v, want ErrContextReleased", err)
	}
}

func TestDeviceClose(t *testing.T) {
	clock := vclock.Scaled(10000)
	d, err := NewDevice(clock, "t/gpu0", testProfile())
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	c, _ := d.Acquire(context.Background())
	d.Close()
	d.Close() // idempotent
	if _, err := d.Acquire(context.Background()); !errors.Is(err, ErrDeviceClosed) {
		t.Errorf("Acquire after close = %v, want ErrDeviceClosed", err)
	}
	if _, err := c.Exec(context.Background(), 1); !errors.Is(err, ErrDeviceClosed) {
		t.Errorf("Exec after close = %v, want ErrDeviceClosed", err)
	}
}

func TestEnergyModel(t *testing.T) {
	d := testDevice(t, testProfile())
	c, _ := d.Acquire(context.Background())
	defer c.Release()
	if _, err := c.Exec(context.Background(), 1000); err != nil { // ~1s busy
		t.Fatalf("Exec: %v", err)
	}
	e := d.Energy()
	// At least the dynamic part: (110-10) W * 1s = 100 J.
	if e < 90 {
		t.Errorf("Energy = %v J, want >= 90", e)
	}
	// Sanity upper bound: uptime is a few modeled seconds at most here.
	if e > 10000 {
		t.Errorf("Energy = %v J, implausibly large", e)
	}
}

func TestSpeedFactorScalesRate(t *testing.T) {
	clock := vclock.Scaled(10000)
	slow := testProfile()
	slow.SpeedFactor = 0.5
	d, err := NewDevice(clock, "t/slow", slow)
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	defer d.Close()
	c, _ := d.Acquire(context.Background())
	defer c.Release()
	// 500 units at 500/s = 1s.
	elapsed, err := c.Exec(context.Background(), 500)
	if err != nil {
		t.Fatalf("Exec: %v", err)
	}
	if elapsed < 800*time.Millisecond {
		t.Errorf("Exec on half-speed device = %v, want ~1s", elapsed)
	}
}

func TestHostConstruction(t *testing.T) {
	clock := vclock.Scaled(10000)
	gpu := testProfile()
	fpga := testProfile()
	fpga.Kind = FPGA
	cpu := testProfile()
	cpu.Kind = CPU
	h, err := NewHost(clock, "node1", cpu, gpu, gpu, fpga)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	defer h.Close()

	if h.Name() != "node1" {
		t.Errorf("Name = %q", h.Name())
	}
	if got := len(h.Devices()); got != 3 {
		t.Errorf("len(Devices) = %d, want 3", got)
	}
	if got := len(h.DevicesByKind(GPU)); got != 2 {
		t.Errorf("GPU devices = %d, want 2", got)
	}
	if got := len(h.DevicesByKind(FPGA)); got != 1 {
		t.Errorf("FPGA devices = %d, want 1", got)
	}
	if got := len(h.DevicesByKind(CPU)); got != 1 {
		t.Errorf("CPU devices = %d, want 1", got)
	}
	if _, ok := h.Device("node1/GPU1"); !ok {
		t.Error("Device(node1/GPU1) not found")
	}
	if _, ok := h.Device("nonexistent"); ok {
		t.Error("Device(nonexistent) found")
	}
}

func TestHostRejectsBadProfile(t *testing.T) {
	clock := vclock.Scaled(10000)
	cpu := testProfile()
	cpu.Kind = CPU
	bad := Profile{}
	if _, err := NewHost(clock, "node1", cpu, bad); err == nil {
		t.Error("NewHost with invalid profile succeeded, want error")
	}
	if _, err := NewHost(clock, "node1", bad); err == nil {
		t.Error("NewHost with invalid CPU profile succeeded, want error")
	}
}
