package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"kaas/internal/accel"
	"kaas/internal/artifact"
	"kaas/internal/kernels"
	"kaas/internal/metrics"
)

// observeArrivalLocked folds one admitted invocation into the kernel's
// arrival-rate estimator. Gaps shorter than the keepalive window update
// the in-period EWMA; longer gaps are the idle periods whose length the
// pre-warm predictor learns. Real demand also cancels any pending
// speculative boot — the arrival itself will warm the pool.
func (s *Server) observeArrivalLocked(e *entry) {
	now := s.clock.Now()
	if !e.lastArrival.IsZero() {
		gap := float64(now.Sub(e.lastArrival))
		if idle := s.cfg.KeepAlive.Idle; idle > 0 && gap >= float64(idle) {
			if e.ewmaIdleGap == 0 {
				e.ewmaIdleGap = gap
			} else {
				e.ewmaIdleGap = ewmaAlpha*gap + (1-ewmaAlpha)*e.ewmaIdleGap
			}
		} else if gap > 0 {
			if e.ewmaGap == 0 {
				e.ewmaGap = gap
			} else {
				e.ewmaGap = ewmaAlpha*gap + (1-ewmaAlpha)*e.ewmaGap
			}
		}
	}
	e.lastArrival = now
	if e.prewarm != nil {
		e.prewarm.Stop()
		e.prewarm = nil
	}
}

// schedulePreWarmLocked arms a speculative runner boot for a kernel that
// just scaled to zero. The predicted next arrival is the last real
// arrival plus the learned idle-gap EWMA; the boot fires PreWarmLead
// ahead of it so the runner is warm when the busy period resumes. No
// prediction is made until at least one full idle gap has been observed
// (the first night is always paid cold), and a kernel is pre-warmed at
// most once per real arrival so a speculative runner that found no
// demand is not re-booted in a warm/reap loop that would burn the very
// device-seconds scale-to-zero exists to save.
func (s *Server) schedulePreWarmLocked(e *entry) {
	if s.cfg.KeepAlive.PreWarmLead <= 0 || s.draining || s.closed {
		return
	}
	if e.ewmaIdleGap == 0 || !e.prewarmedAt.Before(e.lastArrival) {
		return
	}
	eta := e.lastArrival.Add(time.Duration(e.ewmaIdleGap)).Sub(s.clock.Now()) - s.cfg.KeepAlive.PreWarmLead
	if eta < 0 {
		// The predicted arrival is already past: the estimator has no
		// basis for a boot now being useful, so stay scaled to zero.
		return
	}
	if e.prewarm != nil {
		e.prewarm.Stop()
	}
	e.prewarm = s.clock.AfterFunc(eta, func() {
		// Cold starts sleep modeled time; hand off so the clock's
		// dispatcher is not blocked. The Add is ordered against Close's
		// closed flag under the lock, so a timer that beats its Stop can
		// never race the Close-side Wait at a zero counter.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		s.prewarmWG.Add(1)
		s.mu.Unlock()
		go s.preWarm(e)
	})
}

// preWarm speculatively boots one runner for a scaled-to-zero kernel.
// The boot follows the normal cold-start path (artifact cache included),
// then releases its claim so the runner sits warm and idle; if demand
// never materializes the regular keepalive reaper retires it.
func (s *Server) preWarm(e *entry) {
	defer s.prewarmWG.Done()
	s.mu.Lock()
	e.prewarm = nil
	if s.closed || s.draining || len(e.runners) > 0 {
		s.mu.Unlock()
		return
	}
	k := e.kernel
	dev := s.placeLocked(e)
	if dev == nil {
		s.mu.Unlock()
		return
	}
	r := s.newRunnerLocked(e, dev)
	e.prewarmedAt = s.clock.Now()
	s.mu.Unlock()

	met := s.kernelMet(e)
	met.preWarms.Inc()
	inv := fmt.Sprintf("prewarm-%d", s.invSeq.Add(1))
	if s.logsInfo() {
		s.cfg.Logger.Info("pre-warming runner", "inv", inv, "kernel", e.name, "runner", r.id)
	}
	var b metrics.Breakdown
	s.coldStart(s.baseCtx, inv, e, k, r, &b)
	if r.startErr != nil {
		s.removeRunner(e, r)
		s.recordDeviceOutcome(r.device.ID(), r.startErr)
		return
	}
	s.releaseRunner(e, r)
}

// coldStart brings a new runner up: spawn the host process, create the
// device context (RuntimeInit), and run kernel setup work. The caller's
// context bounds the whole sequence, so a cancelled client stops paying
// for spawn and never blocks on a saturated device; the abandoned runner
// is surfaced to waiters through startErr. If the target device has no
// free context slot, an idle runner of another kernel is evicted first so
// single-slot devices (FPGAs) can serve multiple registered kernels
// without deadlocking.
func (s *Server) coldStart(ctx context.Context, inv string, e *entry, k kernels.Kernel, r *runner, b *metrics.Breakdown) {
	defer close(r.ready)

	if err := ctx.Err(); err != nil {
		r.startErr = err
		return
	}
	s.clock.Sleep(s.cfg.RunnerSpawnCost)
	b.Spawn += s.cfg.RunnerSpawnCost

	initStart := s.clock.Now()
	dctx, err := s.acquireSlot(ctx, r.device)
	if err != nil {
		r.startErr = fmt.Errorf("acquire %s: %w", r.device.ID(), err)
		return
	}
	b.RuntimeInit += s.clock.Now().Sub(initStart)
	r.dctx = dctx
	if s.logsInfo() {
		s.cfg.Logger.Info("runner started", "inv", inv, "runner", r.id, "device", r.device.ID())
	}

	// JIT compilation against the artifact cache: a hit means some
	// earlier runner on this host already compiled this kernel for this
	// device kind, and the boot proceeds straight to setup
	// ("cached-cold"); a miss pays the modeled compile cost and
	// publishes the artifact.
	if c := s.cfg.Artifacts; c != nil {
		compile, size := kernels.CompileProfile(k)
		key := artifact.KeyFor(k.Name(), k.Kind().String(), compile.String())
		met := s.kernelMet(e)
		if c.Lookup(key) != nil {
			r.cached = true
			met.cacheHits.Inc()
		} else {
			met.cacheMisses.Inc()
			s.clock.Sleep(compile)
			b.Compile += compile
			c.Store(&artifact.Artifact{
				Key:         key,
				Kernel:      k.Name(),
				Kind:        k.Kind().String(),
				Size:        size,
				CompileCost: compile,
			})
		}
	}

	// Kernel setup (weight loading, transpilation): a fixed modeled
	// duration independent of the device's compute rate.
	cost, err := k.Cost(&kernels.Request{Params: kernels.Params{}})
	if err == nil && cost.SetupTime > 0 {
		s.clock.Sleep(cost.SetupTime)
		b.Setup += cost.SetupTime
	}

	// The runner is up: this — not runner creation — is when a cold
	// start is charged, so an aborted boot whose waiter respawned is one
	// cold start, not two.
	s.kernelMet(e).coldStarts.Inc()
}

// evictRetrySlice bounds how long a blocked cold start waits on a
// saturated device before re-checking for an evictable idle runner. It
// makes slot acquisition race-free without holding the server lock
// across the blocking wait: two concurrent cold starts on a single-slot
// device may both pass the pressure check and find only one evictable
// runner, but the loser retries its eviction instead of blocking
// forever.
//
// Device occupancy advances in modeled time, so the retry slice is a
// modeled duration converted to the wall-clock timeout dev.AcquireWithin
// needs. The original constant was 2ms of wall time, which at the
// default test scale of 5000 quantized the re-check to 10 modeled
// seconds — a blocked cold start could idle for ~10 modeled seconds
// after the contended slot's holder had already gone idle.
const evictRetrySliceModeled = 25 * time.Millisecond

// evictRetrySliceFloor keeps the wall slice from collapsing to a busy
// spin on highly scaled clocks, and stands in entirely on clocks with no
// wall conversion (Manual returns scale 0).
const evictRetrySliceFloor = 50 * time.Microsecond

// evictRetrySlice converts the modeled retry slice to wall time for the
// server's clock.
func (s *Server) evictRetrySlice() time.Duration {
	if scale := s.clock.Scale(); scale > 0 {
		if d := time.Duration(float64(evictRetrySliceModeled) / scale); d > evictRetrySliceFloor {
			return d
		}
	}
	return evictRetrySliceFloor
}

// acquireSlot obtains a device context for a cold start, evicting idle
// runners under slot pressure and retrying the eviction for as long as
// the caller's context allows. Pressure is read from the slots taken,
// which count a context still paying RuntimeInit, so a second cold start
// on a full device evicts and overlaps the first one's init instead of
// seeing a free slot and waiting the init out.
func (s *Server) acquireSlot(ctx context.Context, dev *accel.Device) (*accel.Context, error) {
	dm := s.devMet[dev.ID()]
	if dm != nil {
		dm.queueDepth.Inc()
		defer dm.queueDepth.Dec()
	}
	for {
		if dev.SlotsTaken() >= dev.Profile().Slots {
			s.mu.Lock()
			s.evictIdleRunnerLocked(dev)
			s.mu.Unlock()
		}
		dctx, err := dev.AcquireWithin(ctx, s.evictRetrySlice())
		if err == nil {
			return dctx, nil
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		if errors.Is(err, context.DeadlineExceeded) {
			continue // every slot still held: re-check for an evictable runner
		}
		return nil, err
	}
}

// evictIdleRunnerLocked releases one started, idle runner on the given
// device (any kernel) to free a context slot. It reports whether a runner
// was evicted.
func (s *Server) evictIdleRunnerLocked(dev *accel.Device) bool {
	for _, e := range s.entries {
		for _, r := range e.runners {
			if r.removed || r.device != dev || r.inflight != 0 {
				continue
			}
			select {
			case <-r.ready:
			default:
				continue // still starting
			}
			r.inflight++ // balance the decrement in removeRunnerLocked
			s.removeRunnerLocked(e, r)
			if dm := s.devMet[dev.ID()]; dm != nil {
				dm.evictions.Inc()
			}
			if s.logsInfo() {
				s.cfg.Logger.Info("runner evicted for slot pressure",
					"runner", r.id, "device", dev.ID())
			}
			return true
		}
	}
	return false
}
