package core

import (
	"context"
)

// reap releases runners idle beyond the configured timeout — the
// scale-down half of elasticity (§3.3).
func (s *Server) reap() {
	if s.adm.closed.Load() {
		return
	}
	cutoff := s.clock.Now().Add(-s.cfg.KeepAlive.Idle)
	for _, e := range *s.table.Load() {
		for _, r := range e.reap(cutoff, s.startPreWarm) {
			if dm := s.devMet[r.device.ID()]; dm != nil {
				dm.reaps.Inc()
			}
			s.cfg.Logger.Info("idle runner reaped",
				"runner", r.id, "device", r.device.ID())
		}
	}
	s.scheduleReap()
}

// scheduleReap arms the idle-runner reaper timer. A timer armed while
// Close runs is stopped by one of the two: Close stops the timer it
// finds after closing admission, and a timer stored after that sees the
// closed flag here.
func (s *Server) scheduleReap() {
	t := s.clock.AfterFunc(s.cfg.KeepAlive.SweepEvery, s.reap)
	s.reapTimer.Store(&t)
	if s.adm.closed.Load() {
		t.Stop()
	}
}

// Drain gracefully shuts the server down: new invocations are rejected
// with ErrDraining while in-flight ones run to completion, then the
// server closes. If ctx expires first the server closes anyway (fencing,
// not dropping, whatever is still in flight — see Close) and the context
// error is returned.
func (s *Server) Drain(ctx context.Context) error {
	inFlight, ok := s.adm.drain()
	if !ok {
		return nil
	}
	s.cfg.Logger.Info("server draining", "in_flight", inFlight)

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.adm.waitIdle()
	}()

	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cfg.Logger.Warn("drain deadline expired, closing with work in flight")
	}
	s.Close()
	<-done // Close wakes the waiter, so it always exits
	return err
}

// Close shuts the server down, releasing all idle runners immediately.
// Runners with invocations still in flight are fenced, not dropped:
// their device contexts stay live until the last invocation finishes
// (see entry.close), so a Close racing an invocation can never yank a
// context out from under a serving kernel.
func (s *Server) Close() {
	s.regMu.Lock()
	if !s.adm.close() {
		s.regMu.Unlock()
		return
	}
	s.cancel() // abort in-flight pre-warm boots
	if t := s.reapTimer.Load(); t != nil {
		(*t).Stop()
	}
	for _, e := range *s.table.Load() {
		e.close()
	}
	s.regMu.Unlock()
	// Pre-warm boots see the cancelled base context (or the closed pool)
	// and exit promptly; waiting here keeps Close's contract that no
	// background work of this server survives it.
	s.prewarmWG.Wait()
}
