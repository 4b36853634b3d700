package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"kaas/internal/accel"
	"kaas/internal/kernels"
)

// recordDeviceOutcome feeds an invocation's result on a device into its
// breaker: device-failure-class errors count toward opening it, success
// closes it. Other errors (context cancellation, kernel bugs) say nothing
// about device health and are ignored.
func (s *Server) recordDeviceOutcome(dev string, err error) {
	if s.breakers == nil {
		return
	}
	switch {
	case err == nil:
		s.breakers.RecordSuccess(dev)
	case errors.Is(err, accel.ErrDeviceFailed):
		s.breakers.RecordFailure(dev)
	}
}

// Invoke routes one invocation to a warm or new runner and returns the
// kernel response plus a report of how it was served.
//
// A device failure mid-invocation retires the failed runner and retries
// on whatever healthy capacity remains, at most once per device of the
// kernel's kind; when every retry budget is spent the invocation fails
// with an error wrapping accel.ErrDeviceFailed. The retries' modeled time
// accumulates into the returned report.
//
// A warm invocation passes each owner twice: admission admits and
// completes it, its kernel's runner pool claims and releases a runner.
func (s *Server) Invoke(ctx context.Context, name string, req *kernels.Request) (*kernels.Response, *Report, error) {
	report := new(Report)
	resp, err := s.invoke(ctx, name, req, report)
	if err != nil {
		return nil, nil, err
	}
	return resp, report, nil
}

// invoke is Invoke filling a report its caller owns, so the wire path
// can keep it off the heap. On success the report describes this
// invocation alone; on failure its contents are unspecified. Nothing
// keeps a pointer to the report once invoke returns.
func (s *Server) invoke(ctx context.Context, name string, req *kernels.Request, report *Report) (*kernels.Response, error) {
	wallStart := time.Now()
	tenant := DefaultTenant
	if req != nil {
		tenant = NormalizeTenant(req.Tenant)
	}
	if s.adm.closed.Load() {
		return nil, ErrServerClosed
	}
	e := (*s.table.Load())[name]
	if e == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownKernel, name)
	}
	t, w, reason, err := s.adm.admit(ctx, e, tenant)
	var queued time.Duration
	if err == nil && w != nil {
		// Not dispatchable on arrival: wait in the flow for a grant.
		reason, err = s.adm.await(ctx, w)
		queued = w.waited
	}
	if err != nil {
		if reason != "" {
			s.shedObserved(e, t, reason)
		}
		return nil, err
	}

	met := e.metrics()
	tm := t.metrics()
	met.invocations.Inc()
	tm.admitted.Inc()

	// The ID is built in a stack buffer and converted once: one
	// allocation, where concatenating a formatted number costs two.
	var idBuf [24]byte
	id := strconv.AppendUint(append(idBuf[:0], "inv-"...), s.invSeq.Add(1), 10)
	*report = Report{
		InvocationID: string(id),
		Kernel:       name,
	}
	report.Breakdown.Queue = queued
	// held is the runner claim a successful attempt hands back; wall is
	// the completed invocation's wall time (0 on failure: no history).
	var held *runner
	var wall time.Duration
	defer func() {
		if held != nil {
			e.release(held)
		}
		s.adm.complete(e, t, report.Cold, wall)
	}()

	// One attempt per device of the kind on top of the first, so a
	// flapping device cannot keep an invocation bouncing forever.
	maxAttempts := 1 + len(e.devs)

	var resp *kernels.Response
	for attempt := 1; ; attempt++ {
		report.Attempts = attempt
		resp, held, err = s.invokeOnce(ctx, e, t, req, report)
		if err == nil || ctx.Err() != nil {
			break
		}
		// ErrContextReleased is the same failure seen by a sibling: when a
		// device dies with several invocations in flight on one runner, the
		// first to observe ErrDeviceFailed removes the runner and releases
		// its device context, and the others' in-flight ops then fail with
		// the released-context error. Both retry on remaining capacity; only
		// ErrDeviceFailed is breaker evidence (recordDeviceOutcome).
		failover := errors.Is(err, accel.ErrDeviceFailed) ||
			errors.Is(err, accel.ErrContextReleased)
		if !failover && !errors.Is(err, errColdStartAborted) {
			break
		}
		if attempt >= maxAttempts {
			err = fmt.Errorf("core: failover exhausted after %d attempts for %q: %w",
				attempt, name, err)
			break
		}
		if failover {
			met.failovers.Inc()
			// A failed-over invocation pays (at least part of) a cold
			// start, matching how the evaluation classifies it.
			report.Cold = true
		}
	}
	if err != nil {
		met.errors.Inc()
		return nil, err
	}
	met.observe(report.Cold, report.CachedCold, report.Breakdown)
	tm.latency.Observe(report.Breakdown.Total())
	wall = time.Since(wallStart)
	return resp, nil
}

// shedObserved records one rejection against both the kernel's and the
// tenant's shed counters and logs it.
func (s *Server) shedObserved(e *entry, t *tenantState, reason string) {
	e.metrics().shed(reason)
	t.metrics().shed(reason)
	s.cfg.Logger.Warn("invocation shed",
		"kernel", e.name, "tenant", t.name, "reason", reason)
}

// invokeOnce performs one placement attempt of an invocation,
// accumulating modeled time into the report. On success the claim on the
// serving runner is still held and returned, for Invoke to release just
// before it returns the in-flight slot; every failure path has already
// released (or consumed) it.
func (s *Server) invokeOnce(ctx context.Context, e *entry, t *tenantState, req *kernels.Request, report *Report) (*kernels.Response, *runner, error) {
	// Dispatch-time capacity recheck: admission compared the kernel's
	// backlog against healthy capacity when the invocation arrived, but a
	// breaker can open (or every device of the kind fail) while it sat
	// queued. Re-reading the capacity here keeps a mid-queue breaker open
	// from piling admitted work onto a kernel with zero eligible devices;
	// the shed is typed and charged like any other admission rejection.
	if s.cfg.MaxQueuePerKernel > 0 && e.healthyCapacity() == 0 {
		s.shedObserved(e, t, "capacity_lost")
		return nil, nil, fmt.Errorf("%w: kernel %q lost every eligible %s device after admission",
			ErrOverloaded, e.name, e.kernel.Kind())
	}
	r, spawner, err := e.claim()
	if err != nil {
		return nil, nil, err
	}
	report.Runner = r.id

	// Modeled request routing cost.
	s.clock.Sleep(s.cfg.RoutingOverhead)
	report.Breakdown.Other += s.cfg.RoutingOverhead

	if spawner {
		report.Cold = true
		s.coldStart(ctx, report.InvocationID, e, r, &report.Breakdown)
		report.CachedCold = r.cached
	} else {
		// Wait for the runner to finish starting if necessary. A warm
		// runner is taken without asking ctx for Done, which would make a
		// stream's done channel.
		waitStart := s.clock.Now()
		e.metrics().queueDepth.Inc()
		if !runnerStarted(r) {
			select {
			case <-r.ready:
			case <-ctx.Done():
				e.metrics().queueDepth.Dec()
				e.release(r)
				return nil, nil, ctx.Err()
			}
		}
		e.metrics().queueDepth.Dec()
		report.Breakdown.Queue += s.clock.Now().Sub(waitStart)
	}
	if r.startErr != nil {
		err := r.startErr
		e.fail(r)
		if spawner {
			// Only the spawner reports the cold-start outcome to the
			// breaker: one failed start is one piece of evidence, no
			// matter how many invocations were queued on the runner.
			s.recordDeviceOutcome(r.device.ID(), err)
		}
		if !spawner && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			// The spawner's context expired and took the cold start with
			// it; this waiter is still live and deserves a fresh runner.
			return nil, nil, errColdStartAborted
		}
		return nil, nil, fmt.Errorf("core: runner start: %w", err)
	}

	resp, err := s.serve(ctx, e.kernel, r, req, report)
	s.recordDeviceOutcome(r.device.ID(), err)
	if err != nil {
		if errors.Is(err, accel.ErrDeviceFailed) {
			// The runner's device failed: retire the runner (consuming
			// this attempt's claim, never a sibling's); the Invoke loop
			// retries on whatever healthy capacity remains.
			s.cfg.Logger.Warn("device failure, failing over",
				"inv", report.InvocationID, "kernel", report.Kernel,
				"runner", r.id, "device", r.device.ID())
			e.fail(r)
		} else {
			e.release(r)
		}
		return nil, nil, err
	}
	report.Device = r.device.ID()
	return resp, r, nil
}

// serve executes one invocation on a started runner.
func (s *Server) serve(ctx context.Context, k kernels.Kernel, r *runner, req *kernels.Request, report *Report) (*kernels.Response, error) {
	if req == nil {
		req = &kernels.Request{}
	}
	if req.Params == nil {
		req.Params = kernels.Params{}
	}
	cost, err := k.Cost(req)
	if err != nil {
		return nil, fmt.Errorf("core: cost model: %w", err)
	}

	if cost.DeviceMemory > 0 {
		if err := r.dctx.Alloc(cost.DeviceMemory); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		defer r.dctx.Free(cost.DeviceMemory)
	}

	copyIn, err := r.dctx.Copy(ctx, cost.BytesIn)
	if err != nil {
		return nil, err
	}
	report.Breakdown.CopyIn += copyIn

	var execTime time.Duration
	if s.batcher != nil {
		// Micro-batching: join the forming batch for this (device, kernel)
		// bucket and share one coalesced launch with whoever else arrives
		// inside the window.
		execTime, err = s.batcher.exec(ctx, batchKey{device: r.device.ID(), kernel: k.Name()}, r.dctx, cost.Work)
	} else {
		execTime, err = r.dctx.Exec(ctx, cost.Work)
	}
	if err != nil {
		return nil, err
	}
	report.Breakdown.Exec += execTime

	var resp *kernels.Response
	if !s.cfg.DisableCompute {
		resp, err = k.Execute(req)
		if err != nil {
			return nil, fmt.Errorf("core: execute: %w", err)
		}
	} else {
		resp = &kernels.Response{Values: map[string]float64{"computed": 0}}
	}

	copyOut, err := r.dctx.Copy(ctx, cost.BytesOut)
	if err != nil {
		return nil, err
	}
	report.Breakdown.CopyOut += copyOut
	return resp, nil
}
