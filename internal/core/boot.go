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

// startPreWarm hands a due pre-warm boot for e to its own goroutine, so
// the clock's dispatcher that fired it is not blocked by the cold start.
// The pool's timer calls it under the pool's lock, before the pool can
// close, so the Add never races Close's Wait at a zero counter.
func (s *Server) startPreWarm(e *entry) {
	s.prewarmWG.Add(1)
	go s.preWarm(e)
}

// preWarm speculatively boots one runner for a scaled-to-zero kernel.
// The boot follows the normal cold-start path (artifact cache included),
// then releases its claim so the runner sits warm and idle; if demand
// never materializes the regular keepalive reaper retires it.
func (s *Server) preWarm(e *entry) {
	defer s.prewarmWG.Done()
	if s.adm.draining.Load() {
		return
	}
	r := e.claimPreWarm()
	if r == nil {
		return
	}
	e.metrics().preWarms.Inc()
	inv := fmt.Sprintf("prewarm-%d", s.invSeq.Add(1))
	if s.logsInfo() {
		s.cfg.Logger.Info("pre-warming runner", "inv", inv, "kernel", e.name, "runner", r.id)
	}
	var b metrics.Breakdown
	s.coldStart(s.baseCtx, inv, e, r, &b)
	if r.startErr != nil {
		e.fail(r)
		s.recordDeviceOutcome(r.device.ID(), r.startErr)
		return
	}
	e.release(r)
}

// setupRequest is the request a cold start prices kernel setup with.
// Kernels must not modify a request in Cost, so every cold start shares
// it read-only.
var setupRequest kernels.Request

// coldStart brings a new runner up: spawn the host process, create the
// device context (RuntimeInit), and run kernel setup work. The caller's
// context bounds the whole sequence, so a cancelled client stops paying
// for spawn and never blocks on a saturated device; the abandoned runner
// is surfaced to waiters through startErr. If the target device has no
// free context slot, an idle runner of another kernel is evicted first so
// single-slot devices (FPGAs) can serve multiple registered kernels
// without deadlocking.
func (s *Server) coldStart(ctx context.Context, inv string, e *entry, r *runner, b *metrics.Breakdown) {
	defer close(r.ready)
	k := e.kernel

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
		met := e.metrics()
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
	cost, err := k.Cost(&setupRequest)
	if err == nil && cost.SetupTime > 0 {
		s.clock.Sleep(cost.SetupTime)
		b.Setup += cost.SetupTime
	}

	// The runner is up: this — not runner creation — is when a cold
	// start is charged, so an aborted boot whose waiter respawned is one
	// cold start, not two.
	e.metrics().coldStarts.Inc()
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
			s.evictIdleRunner(dev)
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

// evictIdleRunner releases one started, idle runner on the device, of
// any kernel, to free a context slot. It takes each pool's lock alone,
// one pool at a time.
func (s *Server) evictIdleRunner(dev *accel.Device) {
	for _, e := range *s.table.Load() {
		r := e.evictIdle(dev)
		if r == nil {
			continue
		}
		if dm := s.devMet[dev.ID()]; dm != nil {
			dm.evictions.Inc()
		}
		if s.logsInfo() {
			s.cfg.Logger.Info("runner evicted for slot pressure",
				"runner", r.id, "device", dev.ID())
		}
		return
	}
}
