package core

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kaas/internal/accel"
	"kaas/internal/kernels"
	"kaas/internal/vclock"
)

// entry is one registered kernel and its runner pool. The kernel, its
// devices and its metrics are fixed at Register. inFlight and the wall
// time averages are admission's books for the kernel, guarded by
// fairQueue.mu; everything from mu on is the pool's, guarded by mu. The
// pool's methods are the runner lifecycle: claim (placing a runner when
// the autoscaling policy calls for one), release, fail, reap, evictIdle
// and close.
type entry struct {
	*env
	name   string
	kernel kernels.Kernel
	devs   []*accel.Device // of the kernel's kind, never empty
	// met is created lazily on first use (see metrics): registration
	// sits on the modeled-time critical path, and building the ~two
	// dozen metric series for a kernel is wall-clock work that would
	// inflate the scaled clock.
	metOnce sync.Once
	met     *kernelMetrics

	// inFlight counts admitted invocations of this kernel; it is atomic
	// so the reaper can read it without admission's lock. ewmaWall and
	// ewmaColdWall average the wall time of warm and cold invocations
	// (ns) for the deadline-aware admission estimate; wall time because
	// client deadlines are wall-clock.
	inFlight     atomic.Int64
	ewmaWall     float64
	ewmaColdWall float64

	mu         sync.Mutex
	closed     bool
	runners    []*runner
	rrNext     int
	lastRunner int
	// runnersOn counts this kernel's runners per device; the per-device
	// runner cap is per kernel, so kernels place independently (device
	// slots still bound total contexts).
	runnersOn map[string]int
	// The pre-warm predictor, in modeled time: ewmaIdleGap averages the
	// gaps between arrivals that exceeded the keepalive window — the
	// "overnight" silences whose end pre-warming tries to beat.
	// lastArrival anchors the next prediction, prewarmedAt stops a
	// reaped speculative runner from being re-booted until real demand
	// returns, and prewarm is the pending boot timer (nil when none).
	ewmaIdleGap float64
	lastArrival time.Time
	prewarmedAt time.Time
	prewarm     vclock.Timer
}

// runner is a task runner holding a warm device context.
type runner struct {
	id     string
	device *accel.Device
	dctx   *accel.Context

	ready    chan struct{} // closed when cold start completes
	startErr error
	// cached records that the cold start hit the artifact cache and
	// skipped compilation. Written before ready closes, read after.
	cached bool

	// Guarded by the pool's mu: inflight counts the claims held on the
	// runner; a removed runner has left the pool and released its
	// device context.
	inflight int
	lastUsed time.Time
	removed  bool
}

func newEntry(v *env, k kernels.Kernel, devs []*accel.Device) *entry {
	return &entry{env: v, name: k.Name(), kernel: k, devs: devs, runnersOn: make(map[string]int)}
}

// metrics returns the kernel's cached metric instances, creating them on
// first use.
func (e *entry) metrics() *kernelMetrics {
	e.metOnce.Do(func() { e.met = newKernelMetrics(e.reg, e.name) })
	return e.met
}

// eligible reports whether placement may consider the device: it is not
// currently failed and its breaker would admit a request.
func (v *env) eligible(d *accel.Device) bool {
	return !d.Failed() && (v.breakers == nil || v.breakers.Eligible(d.ID()))
}

// claimDevice claims breaker admission for a placement on the device
// (this is what converts an elapsed open timeout into the single
// half-open probe). With breakers disabled it always succeeds.
func (v *env) claimDevice(d *accel.Device) bool {
	return v.breakers == nil || v.breakers.Allow(d.ID())
}

// healthyCapacity estimates how many invocations of the kernel placement
// can serve concurrently: eligible devices of the kind times the
// per-device runner cap times the per-runner in-flight threshold. It
// reads device and breaker state only, so it takes no lock.
func (e *entry) healthyCapacity() int {
	eligible := 0
	for _, d := range e.devs {
		if e.eligible(d) {
			eligible++
		}
	}
	return eligible * e.cfg.MaxRunnersPerDevice * e.cfg.MaxInFlightPerRunner
}

// claim takes a claim on a runner for one invocation, placing a new
// runner when the autoscaling policy calls for it; spawner reports that
// the runner is new and the caller owns its cold start. It fails with
// ErrServerClosed once the pool is closed, and with ErrUnavailable when
// every device of the kind is behind an open breaker.
func (e *entry) claim() (r *runner, spawner bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, false, ErrServerClosed
	}
	// Prefer the least-loaded runner under the in-flight cap, rotating
	// through ties so load (and therefore devices) is allocated evenly,
	// as the paper observes for KaaS.
	if r := e.leastLoadedLocked(e.cfg.MaxInFlightPerRunner); r != nil {
		return r, false, nil
	}
	// All runners saturated: scale out if a device has capacity.
	if dev := e.placeLocked(); dev != nil {
		return e.newRunnerLocked(dev), true, nil
	}
	// No capacity for new runners: overbook the least-loaded one. The
	// in-flight limit is a scaling trigger, not an admission limit
	// (§5.5: the GPU can take more parallel work than the threshold).
	if r := e.leastLoadedLocked(math.MaxInt); r != nil {
		return r, false, nil
	}
	// No runner exists and no device capacity: create one anyway on the
	// overall least-loaded device so the invocation can queue on the
	// device slot instead of failing.
	if dev := e.leastLoadedDeviceLocked(); dev != nil {
		return e.newRunnerLocked(dev), true, nil
	}
	return nil, false, fmt.Errorf("%w: every %s device's breaker is open for %q",
		ErrUnavailable, e.kernel.Kind(), e.name)
}

// leastLoadedLocked claims the runner with the fewest claims, below
// limit, scanning from the one after the last pick so ties rotate.
func (e *entry) leastLoadedLocked(limit int) *runner {
	var best *runner
	at, n := 0, len(e.runners)
	for i := 0; i < n; i++ {
		j := (e.lastRunner + 1 + i) % n
		if r := e.runners[j]; r.inflight < limit && (best == nil || r.inflight < best.inflight) {
			best, at = r, j
		}
	}
	if best != nil {
		best.inflight++
		e.lastRunner = at
	}
	return best
}

// newRunnerLocked places a runner on dev with one claim, its spawner's.
func (e *entry) newRunnerLocked(dev *accel.Device) *runner {
	// One allocation for the ID, as for an invocation's.
	var idBuf [24]byte
	r := &runner{
		id:       string(strconv.AppendInt(append(idBuf[:0], "runner-"...), e.runnerSeq.Add(1), 10)),
		device:   dev,
		ready:    make(chan struct{}),
		inflight: 1,
		lastUsed: e.clock.Now(),
	}
	e.runners = append(e.runners, r)
	e.runnersOn[dev.ID()]++
	// Cold starts are counted at completion (see coldStart), not here:
	// counting at creation double-charged a kernel when an aborted cold
	// start's waiter retried on a fresh runner.
	if dm := e.devMet[dev.ID()]; dm != nil {
		dm.runners.Inc()
	}
	return r
}

// placeLocked returns the device for a new runner, or nil if every device
// of the kind is at its runner cap.
func (e *entry) placeLocked() *accel.Device {
	room := func(d *accel.Device) bool {
		return e.eligible(d) && e.runnersOn[d.ID()] < e.cfg.MaxRunnersPerDevice
	}
	devs := e.devs
	switch e.cfg.Placement {
	case PlaceFirstFit:
		if room(devs[0]) && e.claimDevice(devs[0]) {
			return devs[0]
		}
		return nil
	case PlaceRoundRobin:
		for i := range devs {
			d := devs[(e.rrNext+i)%len(devs)]
			if room(d) && e.claimDevice(d) {
				e.rrNext = (e.rrNext + i + 1) % len(devs)
				return d
			}
		}
		return nil
	default: // PlaceLeastLoaded
		var best *accel.Device
		for _, d := range devs {
			if room(d) && (best == nil || e.runnersOn[d.ID()] < e.runnersOn[best.ID()]) {
				best = d
			}
		}
		if best != nil && !e.claimDevice(best) {
			// Lost the half-open probe race; treat as no capacity.
			return nil
		}
		return best
	}
}

// leastLoadedDeviceLocked returns the device of the kind with the fewest
// of this kernel's runners, ignoring the per-device runner cap but
// honoring open circuit breakers (a breaker-excluded device is skipped; a
// merely failed one is still a legal last resort, so the invocation fails
// with a device error rather than queueing — and feeds the breaker). It
// returns nil only when every device is breaker-excluded.
func (e *entry) leastLoadedDeviceLocked() *accel.Device {
	var best *accel.Device
	for _, d := range e.devs {
		if e.breakers != nil && !e.breakers.Eligible(d.ID()) {
			continue
		}
		switch {
		case best == nil:
			best = d
		case best.Failed() && !d.Failed():
			best = d
		case !d.Failed() && e.runnersOn[d.ID()] < e.runnersOn[best.ID()]:
			best = d
		}
	}
	if best != nil && !e.claimDevice(best) {
		return nil
	}
	return best
}

// release gives back one claim on r. A runner of a closed pool leaves it
// with its last claim.
func (e *entry) release(r *runner) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r.inflight--
	r.lastUsed = e.clock.Now()
	if e.closed && r.inflight == 0 && runnerStarted(r) {
		e.removeLocked(r)
	}
}

// fail retires r for a caller whose claim on it failed (a failed cold
// start, a device failure), consuming that claim. The runner leaves the
// pool once however many claimants fail it; the claims its siblings
// still hold stay counted until they fail or release it in turn.
func (e *entry) fail(r *runner) {
	e.mu.Lock()
	defer e.mu.Unlock()
	r.inflight--
	e.removeLocked(r)
}

// removeLocked takes r out of the pool and releases its device context;
// it leaves r's claims as they are.
func (e *entry) removeLocked(r *runner) {
	if r.removed {
		return
	}
	r.removed = true
	e.runnersOn[r.device.ID()]--
	if dm := e.devMet[r.device.ID()]; dm != nil {
		dm.runners.Dec()
	}
	for i, x := range e.runners {
		if x == r {
			e.runners = append(e.runners[:i], e.runners[i+1:]...)
			break
		}
	}
	if r.dctx != nil {
		r.dctx.Release()
	}
}

// reap removes the started runners idle since cutoff or longer and
// returns them. A claimed runner is never among them: it must keep its
// device context. When that leaves the pool empty with nothing of the
// kernel in flight, the kernel has scaled to zero, and boot is armed for
// the pre-warm predictor's next arrival.
func (e *entry) reap(cutoff time.Time, boot func(*entry)) []*runner {
	e.mu.Lock()
	defer e.mu.Unlock()
	var idle []*runner
	for _, r := range e.runners {
		if r.inflight == 0 && !r.lastUsed.After(cutoff) && runnerStarted(r) {
			idle = append(idle, r)
		}
	}
	for _, r := range idle {
		e.removeLocked(r)
	}
	if len(idle) > 0 && len(e.runners) == 0 && e.inFlight.Load() == 0 {
		e.armPreWarmLocked(boot)
	}
	return idle
}

// evictIdle removes one started, unclaimed runner of the pool on dev to
// free its context slot, and returns it (nil when there is none).
func (e *entry) evictIdle(dev *accel.Device) *runner {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range e.runners {
		if r.device == dev && r.inflight == 0 && runnerStarted(r) {
			e.removeLocked(r)
			return r
		}
	}
	return nil
}

// close stops the pool: no claim succeeds after it, a pending pre-warm
// boot is cancelled, and idle runners are removed at once. A runner with
// claims still held is fenced, not dropped: it keeps its device context
// until its last claim is released, so a Close racing an invocation
// never yanks a context out from under a serving kernel.
func (e *entry) close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	if e.prewarm != nil {
		e.prewarm.Stop()
		e.prewarm = nil
	}
	for i := len(e.runners) - 1; i >= 0; i-- {
		if r := e.runners[i]; r.inflight == 0 {
			e.removeLocked(r)
		}
	}
}

// warmFree reports whether the pool holds a started, healthy runner with
// in-flight headroom — the warm state sticky dispatch steers toward.
func (e *entry) warmFree() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range e.runners {
		if r.inflight < e.cfg.MaxInFlightPerRunner && runnerStarted(r) && r.startErr == nil {
			return true
		}
	}
	return false
}

// runnerCount returns how many runners the pool holds.
func (e *entry) runnerCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.runners)
}

// runnerStarted reports whether the runner's cold start has completed.
func runnerStarted(r *runner) bool {
	select {
	case <-r.ready:
		return true
	default:
		return false
	}
}

// observeArrival folds one admitted invocation into the pre-warm
// predictor: a gap since the last arrival longer than the keepalive
// window is an idle period whose length the predictor learns. Real
// demand also cancels any pending speculative boot — the arrival itself
// will warm the pool.
func (e *entry) observeArrival() {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.clock.Now()
	if idle := e.cfg.KeepAlive.Idle; idle > 0 && !e.lastArrival.IsZero() && now.Sub(e.lastArrival) >= idle {
		e.ewmaIdleGap = ewma(e.ewmaIdleGap, float64(now.Sub(e.lastArrival)))
	}
	e.lastArrival = now
	if e.prewarm != nil {
		e.prewarm.Stop()
		e.prewarm = nil
	}
}

// armPreWarmLocked arms boot for a pool that just scaled to zero. The
// predicted next arrival is the last real arrival plus the learned
// idle-gap average; boot fires PreWarmLead ahead of it so the runner is
// warm when the busy period resumes. No prediction is made until at
// least one full idle gap has been observed (the first night is always
// paid cold), and a kernel is pre-warmed at most once per real arrival
// so a speculative runner that found no demand is not re-booted in a
// warm/reap loop that would burn the very device-seconds scale-to-zero
// exists to save.
func (e *entry) armPreWarmLocked(boot func(*entry)) {
	lead := e.cfg.KeepAlive.PreWarmLead
	if lead <= 0 || e.closed || e.ewmaIdleGap == 0 || !e.prewarmedAt.Before(e.lastArrival) {
		return
	}
	eta := e.lastArrival.Add(time.Duration(e.ewmaIdleGap)).Sub(e.clock.Now()) - lead
	if eta < 0 {
		// The predicted arrival is already past: the estimator has no
		// basis for a boot now being useful, so stay scaled to zero.
		return
	}
	if e.prewarm != nil {
		e.prewarm.Stop()
	}
	e.prewarm = e.clock.AfterFunc(eta, func() {
		// Under the pool's lock, so a timer that beats close's Stop
		// either hands off its boot before close returns or sees the
		// pool closed.
		e.mu.Lock()
		defer e.mu.Unlock()
		if !e.closed {
			boot(e)
		}
	})
}

// claimPreWarm places a speculative runner for a scaled-to-zero pool and
// returns it claimed, or nil when the pool is closed, already holds a
// runner, or has no device with room.
func (e *entry) claimPreWarm() *runner {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.prewarm = nil
	if e.closed || len(e.runners) > 0 {
		return nil
	}
	dev := e.placeLocked()
	if dev == nil {
		return nil
	}
	e.prewarmedAt = e.clock.Now()
	return e.newRunnerLocked(dev)
}
