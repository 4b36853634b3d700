package core

import (
	"context"
)

// removeRunner deletes a failed runner on behalf of a caller that still
// holds an in-flight claim on it; the claim is consumed either way, so
// several waiters of one failed cold start can all call it and the
// runner's in-flight accounting still ends exactly at zero.
func (s *Server) removeRunner(e *entry, r *runner) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.removed {
		r.inflight--
		return
	}
	s.removeRunnerLocked(e, r)
}

func (s *Server) removeRunnerLocked(e *entry, r *runner) {
	if r.removed {
		return
	}
	r.removed = true
	r.inflight--
	s.runnersOn[r.device.ID()]--
	e.runnersOn[r.device.ID()]--
	if dm := s.devMet[r.device.ID()]; dm != nil {
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

// reap releases runners idle beyond the configured timeout — the
// scale-down half of elasticity (§3.3).
func (s *Server) reap() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	now := s.clock.Now()
	type victim struct {
		e *entry
		r *runner
	}
	var victims []victim
	for _, e := range s.entries {
		for _, r := range e.runners {
			if r.inflight == 0 && !r.removed && now.Sub(r.lastUsed) >= s.cfg.KeepAlive.Idle {
				select {
				case <-r.ready:
					victims = append(victims, victim{e, r})
				default:
					// still starting; skip
				}
			}
		}
	}
	for _, v := range victims {
		// Re-check at removal time. Selection and removal run under one
		// continuous lock hold today, but the claim interlock — a runner
		// picked for reaping in the same tick an invocation claims it
		// must keep its device context — must not depend on that staying
		// true, so the removal re-verifies the runner is still idle.
		if v.r.removed || v.r.inflight != 0 {
			continue
		}
		v.r.inflight++ // balance the decrement in removeRunnerLocked
		s.removeRunnerLocked(v.e, v.r)
		if dm := s.devMet[v.r.device.ID()]; dm != nil {
			dm.reaps.Inc()
		}
		s.cfg.Logger.Info("idle runner reaped",
			"runner", v.r.id, "device", v.r.device.ID())
		if len(v.e.runners) == 0 && v.e.inFlight == 0 {
			// The kernel scaled to zero: hand the next boot to the
			// pre-warm predictor.
			s.schedulePreWarmLocked(v.e)
		}
	}
	s.scheduleReapLocked()
	s.mu.Unlock()
}

// scheduleReapLocked arms the idle-runner reaper timer.
func (s *Server) scheduleReapLocked() {
	s.reapTimer = s.clock.AfterFunc(s.cfg.KeepAlive.SweepEvery, s.reap)
}

// Drain gracefully shuts the server down: new invocations are rejected
// with ErrDraining while in-flight ones run to completion, then the
// server closes. If ctx expires first the server closes anyway (fencing,
// not dropping, whatever is still in flight — see Close) and the context
// error is returned.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	// Queued waiters are not in flight and would never be granted once
	// draining; reject them now so Drain cannot hang on them.
	s.fair.flushLocked(s, "draining", ErrDraining)
	s.cfg.Logger.Info("server draining", "in_flight", s.inFlight)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.mu.Lock()
		for s.inFlight > 0 && !s.closed {
			s.cond.Wait()
		}
		s.mu.Unlock()
	}()

	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cfg.Logger.Warn("drain deadline expired, closing with work in flight")
	}
	s.Close()
	<-done // Close broadcasts, so the waiter always exits
	return err
}

// Close shuts the server down, releasing all idle runners immediately.
// Runners with invocations still in flight are fenced, not dropped:
// their device contexts stay live until the last invocation finishes
// (releaseRunner then releases them), so a Close racing an invocation
// can never yank a context out from under a serving kernel.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.fair.flushLocked(s, "", ErrServerClosed)
	if s.cancel != nil {
		s.cancel() // abort in-flight pre-warm boots
	}
	if s.reapTimer != nil {
		s.reapTimer.Stop()
		s.reapTimer = nil
	}
	for _, e := range s.entries {
		if e.prewarm != nil {
			e.prewarm.Stop()
			e.prewarm = nil
		}
	}
	for _, e := range s.entries {
		// removeRunnerLocked splices e.runners; iterate a snapshot.
		for _, r := range append([]*runner(nil), e.runners...) {
			if r.removed {
				continue
			}
			if r.inflight > 0 {
				r.draining = true
				continue
			}
			r.inflight++ // balance the decrement in removeRunnerLocked
			s.removeRunnerLocked(e, r)
		}
	}
	s.cond.Broadcast() // wake any Drain waiter
	s.mu.Unlock()
	// Pre-warm boots see the cancelled base context (or the closed flag)
	// and exit promptly; waiting here keeps Close's contract that no
	// background work of this server survives it.
	s.prewarmWG.Wait()
}
