package core

import (
	"strconv"

	"kaas/internal/accel"
)

// deviceEligibleLocked reports whether placement may consider the device:
// it is not currently failed and its breaker would admit a request.
func (s *Server) deviceEligibleLocked(d *accel.Device) bool {
	if d.Failed() {
		return false
	}
	return s.breakers == nil || s.breakers.Eligible(d.ID())
}

// claimDeviceLocked claims breaker admission for a placement on the
// device (this is what converts an elapsed open timeout into the single
// half-open probe). With breakers disabled it always succeeds.
func (s *Server) claimDeviceLocked(d *accel.Device) bool {
	return s.breakers == nil || s.breakers.Allow(d.ID())
}

// selectRunnerLocked picks a runner for a new invocation, creating one if
// the autoscaling policy calls for it. It returns the runner and whether
// the caller is responsible for its cold start.
func (s *Server) selectRunnerLocked(e *entry) (*runner, bool) {
	// Prefer the least-loaded existing runner under the in-flight cap,
	// breaking ties by rotating through the pool so load (and therefore
	// devices) is allocated evenly, as the paper observes for KaaS.
	var best *runner
	n := len(e.runners)
	for i := 0; i < n; i++ {
		r := e.runners[(e.lastRunner+1+i)%n]
		if r.removed || r.draining {
			continue
		}
		if r.inflight < s.cfg.MaxInFlightPerRunner && (best == nil || r.inflight < best.inflight) {
			best = r
		}
	}
	if best != nil {
		best.inflight++
		s.setLastRunnerLocked(e, best)
		return best, false
	}

	// All runners saturated: scale out if a device has capacity.
	if dev := s.placeLocked(e); dev != nil {
		return s.newRunnerLocked(e, dev), true
	}

	// No capacity for new runners: overbook the least-loaded one,
	// rotating through ties so saturated pools still spread load. The
	// in-flight limit is a scaling trigger, not an admission limit
	// (§5.5: the GPU can take more parallel work than the threshold).
	for i := 0; i < n; i++ {
		r := e.runners[(e.lastRunner+1+i)%n]
		if r.removed || r.draining {
			continue
		}
		if best == nil || r.inflight < best.inflight {
			best = r
		}
	}
	if best == nil {
		// No runner exists and no device capacity: create one anyway on
		// the overall least-loaded device so the invocation can queue on
		// the device slot instead of failing. A nil device means every
		// device of the kind is behind an open breaker — the caller
		// surfaces ErrUnavailable.
		dev := s.leastLoadedDeviceLocked(e)
		if dev == nil {
			return nil, false
		}
		return s.newRunnerLocked(e, dev), true
	}
	best.inflight++
	s.setLastRunnerLocked(e, best)
	return best, false
}

// setLastRunnerLocked records the rotation point for tie-breaking.
func (s *Server) setLastRunnerLocked(e *entry, picked *runner) {
	for i, r := range e.runners {
		if r == picked {
			e.lastRunner = i
			return
		}
	}
}

// newRunnerLocked creates a runner on dev with one in-flight invocation —
// the caller becomes its spawner.
func (s *Server) newRunnerLocked(e *entry, dev *accel.Device) *runner {
	s.runnerSeq++
	// One allocation for the ID, as for an invocation's.
	var idBuf [24]byte
	r := &runner{
		id:       string(strconv.AppendInt(append(idBuf[:0], "runner-"...), int64(s.runnerSeq), 10)),
		device:   dev,
		ready:    make(chan struct{}),
		inflight: 1,
		lastUsed: s.clock.Now(),
	}
	e.runners = append(e.runners, r)
	s.runnersOn[dev.ID()]++
	e.runnersOn[dev.ID()]++
	// Cold starts are counted at completion (see coldStart), not here:
	// counting at creation double-charged a kernel when an aborted cold
	// start's waiter retried on a fresh runner.
	if dm := s.devMet[dev.ID()]; dm != nil {
		dm.runners.Inc()
	}
	return r
}

// placeLocked returns the device for a new runner, or nil if every device
// of the kind is at its runner cap.
func (s *Server) placeLocked(e *entry) *accel.Device {
	devs := s.cfg.Host.DevicesByKind(e.kernel.Kind())
	if len(devs) == 0 {
		return nil
	}
	switch s.cfg.Placement {
	case PlaceFirstFit:
		if s.deviceEligibleLocked(devs[0]) &&
			e.runnersOn[devs[0].ID()] < s.cfg.MaxRunnersPerDevice &&
			s.claimDeviceLocked(devs[0]) {
			return devs[0]
		}
		return nil
	case PlaceRoundRobin:
		for i := 0; i < len(devs); i++ {
			d := devs[(e.rrNext+i)%len(devs)]
			if s.deviceEligibleLocked(d) &&
				e.runnersOn[d.ID()] < s.cfg.MaxRunnersPerDevice &&
				s.claimDeviceLocked(d) {
				e.rrNext = (e.rrNext + i + 1) % len(devs)
				return d
			}
		}
		return nil
	default: // PlaceLeastLoaded
		var best *accel.Device
		for _, d := range devs {
			if !s.deviceEligibleLocked(d) || e.runnersOn[d.ID()] >= s.cfg.MaxRunnersPerDevice {
				continue
			}
			if best == nil || e.runnersOn[d.ID()] < e.runnersOn[best.ID()] {
				best = d
			}
		}
		if best != nil && !s.claimDeviceLocked(best) {
			// Lost the half-open probe race; treat as no capacity.
			return nil
		}
		return best
	}
}

// leastLoadedDeviceLocked returns the device of the entry's kind with the
// fewest of this kernel's runners, ignoring the per-device runner cap but
// honoring open circuit breakers (a breaker-excluded device is skipped; a
// merely failed one is still a legal last resort, so the invocation fails
// with a device error rather than queueing — and feeds the breaker). It
// returns nil only when every device is breaker-excluded. The caller
// guarantees at least one device of the kind exists (checked at
// Register).
func (s *Server) leastLoadedDeviceLocked(e *entry) *accel.Device {
	var best *accel.Device
	for _, d := range s.cfg.Host.DevicesByKind(e.kernel.Kind()) {
		if s.breakers != nil && !s.breakers.Eligible(d.ID()) {
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
	if best != nil && !s.claimDeviceLocked(best) {
		return nil
	}
	return best
}
