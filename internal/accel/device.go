package accel

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"kaas/internal/psched"
	"kaas/internal/vclock"
)

// Errors returned by device operations.
var (
	// ErrOutOfMemory indicates a device memory allocation did not fit.
	ErrOutOfMemory = errors.New("accel: out of device memory")
	// ErrContextReleased indicates use of a context after Release.
	ErrContextReleased = errors.New("accel: context already released")
	// ErrDeviceClosed indicates the device has been shut down.
	ErrDeviceClosed = errors.New("accel: device closed")
	// ErrDeviceFailed indicates the device is in an injected failure
	// state (XID error, thermal shutdown, link drop). Operations fail
	// until the device is repaired.
	ErrDeviceFailed = errors.New("accel: device failed")
)

// Device is one simulated accelerator instance. All methods are safe for
// concurrent use. Compute contention follows processor sharing (matching
// MPS-style space sharing); host-device copies contend on a shared link.
type Device struct {
	id      string
	profile Profile
	clock   vclock.Clock

	compute *psched.Engine
	link    *psched.Engine
	slots   chan struct{}

	mu         sync.Mutex
	memUsed    int64
	closed     bool
	failed     bool
	createdAt  time.Time
	ctxCounter int
	activeCtx  int
	coldStarts int
	// slotHeld accumulates slot occupancy of released contexts;
	// liveCtxStartSum is the sum of live contexts' acquire offsets from
	// createdAt, so Stats can charge still-held slots without a context
	// list.
	slotHeld        time.Duration
	liveCtxStartSum time.Duration
}

// NewDevice creates a device with the given id and profile, timed by clock.
func NewDevice(clock vclock.Clock, id string, profile Profile) (*Device, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	profile = profile.withDefaults()
	compute, err := psched.New(clock, psched.Config{
		Capacity:   profile.ComputeRate * profile.SpeedFactor,
		Discipline: psched.ProcessorSharing,
	})
	if err != nil {
		return nil, fmt.Errorf("accel: compute engine: %w", err)
	}
	link, err := psched.New(clock, psched.Config{
		Capacity:   profile.CopyBandwidth,
		Discipline: psched.ProcessorSharing,
	})
	if err != nil {
		compute.Close()
		return nil, fmt.Errorf("accel: link engine: %w", err)
	}
	return &Device{
		id:        id,
		profile:   profile,
		clock:     clock,
		compute:   compute,
		link:      link,
		slots:     make(chan struct{}, profile.Slots),
		createdAt: clock.Now(),
	}, nil
}

// ID returns the device identifier.
func (d *Device) ID() string { return d.id }

// Profile returns the device's cost model (with defaults applied).
func (d *Device) Profile() Profile { return d.profile }

// Kind returns the device's accelerator kind.
func (d *Device) Kind() Kind { return d.profile.Kind }

// Fail puts the device into a failure state: all new operations return
// ErrDeviceFailed until Repair is called. Used for failure-injection
// testing of the runtime's failover behaviour.
func (d *Device) Fail() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = true
}

// Repair clears an injected failure.
func (d *Device) Repair() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed = false
}

// Failed reports whether the device is in a failure state.
func (d *Device) Failed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failed
}

// Close shuts the device down. Outstanding operations fail.
func (d *Device) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	d.closed = true
	d.mu.Unlock()
	d.compute.Close()
	d.link.Close()
}

// Acquire obtains an execution context, blocking while all slots are held
// (this queueing is exactly the paper's time sharing when Slots is 1). It
// pays the profile's RuntimeInit cost before returning.
func (d *Device) Acquire(ctx context.Context) (*Context, error) {
	if err := d.usable(); err != nil {
		return nil, err
	}
	select {
	case d.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return d.open()
}

// AcquireWithin is Acquire with the wait for a free slot bounded by wait,
// a wall-clock duration: when no slot frees up in time it returns
// context.DeadlineExceeded, as Acquire under a context.WithTimeout would,
// without deriving a context. A free slot is taken without looking at
// ctx; a cancelled ctx ends the wait with ctx.Err(). The server's cold
// start retries it in slices, evicting an idle runner between them.
func (d *Device) AcquireWithin(ctx context.Context, wait time.Duration) (*Context, error) {
	if err := d.usable(); err != nil {
		return nil, err
	}
	select {
	case d.slots <- struct{}{}:
	default:
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case d.slots <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-t.C:
			return nil, context.DeadlineExceeded
		}
	}
	return d.open()
}

// usable reports why the device cannot hand out a context, if it cannot.
func (d *Device) usable() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrDeviceClosed
	}
	if d.failed {
		return fmt.Errorf("%w: %s", ErrDeviceFailed, d.id)
	}
	return nil
}

// open pays RuntimeInit and creates a context on the slot its caller
// holds, giving the slot back if the device closed meanwhile.
func (d *Device) open() (*Context, error) {
	d.clock.Sleep(d.profile.RuntimeInit)

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		<-d.slots
		return nil, ErrDeviceClosed
	}
	d.ctxCounter++
	d.activeCtx++
	d.coldStarts++
	now := d.clock.Now()
	// Built in a stack buffer and converted once: one allocation.
	var idBuf [48]byte
	id := strconv.AppendInt(append(append(idBuf[:0], d.id...), "/ctx-"...), int64(d.ctxCounter), 10)
	c := &Context{
		id:         string(id),
		device:     d,
		acquiredAt: now,
	}
	d.liveCtxStartSum += now.Sub(d.createdAt)
	d.mu.Unlock()
	return c, nil
}

// SlotsTaken returns how many of the device's context slots are taken
// right now, counting a context from the moment its slot is claimed:
// one still paying RuntimeInit counts, unlike in Stats().ActiveContexts.
// It takes no lock, so a caller deciding whether the device is full can
// ask it on every retry.
func (d *Device) SlotsTaken() int { return len(d.slots) }

// Stats is a point-in-time snapshot of device state.
type Stats struct {
	// ActiveContexts is the number of contexts handed out and not yet
	// released. A context counts only once it has paid RuntimeInit, so
	// while a cold start initializes its slot is taken but not counted
	// here; SlotsTaken counts it from the moment the slot is claimed.
	ActiveContexts int
	// ColdStarts counts context creations (each paid RuntimeInit).
	ColdStarts int
	// MemoryUsed is the current device memory allocation.
	MemoryUsed int64
	// ComputeBusy is total modeled time the compute fabric was active.
	ComputeBusy time.Duration
	// ComputeActive is the number of kernels executing right now.
	ComputeActive int
	// WorkDone is the total compute work served.
	WorkDone float64
	// SlotBusy is cumulative modeled time context slots were held,
	// summed across slots — the "device-seconds" a tenancy accounting
	// would bill. A device holding 2 contexts for 1 modeled second
	// accrues 2 seconds.
	SlotBusy time.Duration
	// Uptime is modeled time since device creation.
	Uptime time.Duration
}

// Stats returns current device statistics.
func (d *Device) Stats() Stats {
	cu := d.compute.Usage()
	now := d.clock.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	// Slot-busy time of live contexts: each has been held from its
	// acquire instant to now; the start-offset sum folds them all in
	// without tracking the context list.
	uptime := now.Sub(d.createdAt)
	slotBusy := d.slotHeld + time.Duration(d.activeCtx)*uptime - d.liveCtxStartSum
	return Stats{
		ActiveContexts: d.activeCtx,
		ColdStarts:     d.coldStarts,
		MemoryUsed:     d.memUsed,
		ComputeBusy:    cu.BusyTime,
		ComputeActive:  cu.Active,
		WorkDone:       cu.WorkDone,
		SlotBusy:       slotBusy,
		Uptime:         uptime,
	}
}

// Energy returns the modeled energy in joules consumed so far, using a
// two-level power model: idle power for the whole uptime plus the
// busy-idle delta for time the compute fabric was active.
func (d *Device) Energy() float64 {
	s := d.Stats()
	idle := d.profile.IdlePower * s.Uptime.Seconds()
	dynamic := (d.profile.BusyPower - d.profile.IdlePower) * s.ComputeBusy.Seconds()
	return idle + dynamic
}

// Utilization returns the instantaneous compute utilization in [0, 1]:
// 1 when any kernel is resident on the fabric.
func (d *Device) Utilization() float64 {
	if d.compute.Usage().Active > 0 {
		return 1
	}
	return 0
}

// Context is a held execution context on a device (the analogue of a CUDA
// context / TPU client / FPGA runtime session). A context may be used by
// several goroutines concurrently; kernels launched through it contend on
// the device's shared compute fabric.
type Context struct {
	id         string
	device     *Device
	acquiredAt time.Time

	mu       sync.Mutex
	released bool
	memHeld  int64
}

// ID returns the context identifier.
func (c *Context) ID() string { return c.id }

// Device returns the owning device.
func (c *Context) Device() *Device { return c.device }

// Release frees the context's slot and any memory it still holds.
func (c *Context) Release() {
	c.mu.Lock()
	if c.released {
		c.mu.Unlock()
		return
	}
	c.released = true
	held := c.memHeld
	c.memHeld = 0
	c.mu.Unlock()

	d := c.device
	now := d.clock.Now()
	d.mu.Lock()
	d.memUsed -= held
	d.activeCtx--
	d.slotHeld += now.Sub(c.acquiredAt)
	d.liveCtxStartSum -= c.acquiredAt.Sub(d.createdAt)
	d.mu.Unlock()
	<-d.slots
}

// checkLive returns an error if the context or device is unusable.
func (c *Context) checkLive() error {
	c.mu.Lock()
	released := c.released
	c.mu.Unlock()
	if released {
		return ErrContextReleased
	}
	c.device.mu.Lock()
	closed := c.device.closed
	failed := c.device.failed
	c.device.mu.Unlock()
	if closed {
		return ErrDeviceClosed
	}
	if failed {
		return fmt.Errorf("%w: %s", ErrDeviceFailed, c.device.id)
	}
	return nil
}

// Alloc reserves bytes of device memory for this context.
func (c *Context) Alloc(bytes int64) error {
	if err := c.checkLive(); err != nil {
		return err
	}
	if bytes < 0 {
		return fmt.Errorf("accel: negative allocation %d", bytes)
	}
	d := c.device
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.memUsed+bytes > d.profile.MemoryBytes {
		return fmt.Errorf("%w: want %d, used %d of %d",
			ErrOutOfMemory, bytes, d.memUsed, d.profile.MemoryBytes)
	}
	d.memUsed += bytes
	c.mu.Lock()
	c.memHeld += bytes
	c.mu.Unlock()
	return nil
}

// Free returns bytes of device memory.
func (c *Context) Free(bytes int64) {
	if bytes <= 0 {
		return
	}
	c.mu.Lock()
	if bytes > c.memHeld {
		bytes = c.memHeld
	}
	c.memHeld -= bytes
	c.mu.Unlock()
	d := c.device
	d.mu.Lock()
	d.memUsed -= bytes
	d.mu.Unlock()
}

// Copy transfers bytes across the host-device link, contending with other
// transfers, and returns the modeled transfer duration.
func (c *Context) Copy(ctx context.Context, bytes int64) (time.Duration, error) {
	if err := c.checkLive(); err != nil {
		return 0, err
	}
	if bytes < 0 {
		return 0, fmt.Errorf("accel: negative copy size %d", bytes)
	}
	c.device.clock.Sleep(c.device.profile.CopyLatency)
	d, err := c.device.link.Run(ctx, float64(bytes))
	if err != nil {
		return d, fmt.Errorf("copy on %s: %w", c.device.id, err)
	}
	return d + c.device.profile.CopyLatency, nil
}

// Exec launches a kernel execution of the given work units on the device
// fabric and blocks until it completes, returning the modeled kernel time
// (including launch overhead).
func (c *Context) Exec(ctx context.Context, work float64) (time.Duration, error) {
	if err := c.checkLive(); err != nil {
		return 0, err
	}
	if work < 0 {
		return 0, fmt.Errorf("accel: negative work %v", work)
	}
	c.device.clock.Sleep(c.device.profile.LaunchOverhead)
	d, err := c.device.compute.Run(ctx, work)
	if err != nil {
		return d, fmt.Errorf("exec on %s: %w", c.device.id, err)
	}
	return d + c.device.profile.LaunchOverhead, nil
}

// ExecBatch launches the given work units as one coalesced kernel
// dispatch: the device pays LaunchOverhead once for the whole batch
// instead of once per member, then runs the summed work on the compute
// fabric. This is the modeled win of server-side micro-batching — N
// same-kernel invocations amortize a single launch. It returns the
// modeled batch time (including the single launch overhead).
func (c *Context) ExecBatch(ctx context.Context, works []float64) (time.Duration, error) {
	if err := c.checkLive(); err != nil {
		return 0, err
	}
	var total float64
	for _, w := range works {
		if w < 0 {
			return 0, fmt.Errorf("accel: negative work %v", w)
		}
		total += w
	}
	if len(works) == 0 {
		return 0, nil
	}
	c.device.clock.Sleep(c.device.profile.LaunchOverhead)
	d, err := c.device.compute.Run(ctx, total)
	if err != nil {
		return d, fmt.Errorf("exec batch on %s: %w", c.device.id, err)
	}
	return d + c.device.profile.LaunchOverhead, nil
}
