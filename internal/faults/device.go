package faults

import (
	"context"
	"sync"
	"time"

	"kaas/internal/vclock"
)

// FailRepairer is the device surface the flapper drives; accel.Device
// implements it. Fail marks the device failed (in-flight and future
// operations on it error), Repair brings it back.
type FailRepairer interface {
	Fail()
	Repair()
}

// DeviceFlapper scripts fail/repair cycles on one device for chaos
// tests and the overload benchmark. Like the connection faults in this
// package, it is fully deterministic: the caller decides exactly when
// the device goes down and comes back (typically keyed off modeled
// time or invocation hooks), and the flapper keeps the transition
// counts so assertions don't have to.
type DeviceFlapper struct {
	dev FailRepairer

	mu      sync.Mutex
	down    bool
	fails   int
	repairs int
}

// NewDeviceFlapper wraps a device (healthy, not yet failed).
func NewDeviceFlapper(dev FailRepairer) *DeviceFlapper {
	return &DeviceFlapper{dev: dev}
}

// Fail takes the device down. Idempotent: repeated calls while down are
// not counted as new transitions.
func (f *DeviceFlapper) Fail() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return
	}
	f.down = true
	f.fails++
	f.dev.Fail()
}

// Repair brings the device back. Idempotent while the device is up.
func (f *DeviceFlapper) Repair() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.down {
		return
	}
	f.down = false
	f.repairs++
	f.dev.Repair()
}

// Down reports whether the device is currently failed.
func (f *DeviceFlapper) Down() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.down
}

// Cycles returns how many fail and repair transitions have been driven.
func (f *DeviceFlapper) Cycles() (fails, repairs int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fails, f.repairs
}

// FlapSchedule scripts a finite fail/repair sequence in modeled time.
// The schedule is fully determined by its parameters — no randomness —
// so a scenario that runs it is reproducible by construction.
type FlapSchedule struct {
	// Delay is the modeled time before the first failure.
	Delay time.Duration
	// Cycles is how many fail/repair pairs to drive.
	Cycles int
	// Down is how long the device stays failed per cycle.
	Down time.Duration
	// Up is how long the device stays healthy between cycles.
	Up time.Duration
}

// Transitions returns the fail+repair transition count the schedule
// drives when it runs to completion.
func (s FlapSchedule) Transitions() int { return 2 * s.Cycles }

// Run drives the schedule against the clock, blocking until every cycle
// completes or ctx is cancelled. The waits are cancellable — a cancelled
// scenario does not strand this goroutine sleeping out the schedule —
// and the device is always left repaired on every exit path, so a
// cancelled chaos run cannot leak a permanently-failed device into
// subsequent tests. Returns ctx.Err when cancelled early, else nil.
func (f *DeviceFlapper) Run(ctx context.Context, clock vclock.Clock, s FlapSchedule) error {
	// Whatever happens below (including a cancellation between Fail and
	// the repair wait), leave the device healthy.
	defer f.Repair()
	if !waitModeled(ctx, clock, s.Delay) {
		return ctx.Err()
	}
	for i := 0; i < s.Cycles; i++ {
		f.Fail()
		if !waitModeled(ctx, clock, s.Down) {
			return ctx.Err()
		}
		f.Repair()
		if i < s.Cycles-1 && !waitModeled(ctx, clock, s.Up) {
			return ctx.Err()
		}
	}
	return nil
}

// waitModeled blocks for d of modeled time, returning false if ctx is
// done first. AfterFunc + select rather than Clock.Sleep: Sleep is not
// interruptible, and a cancelled chaos scenario must not hold its
// goroutine until a modeled deadline that may be minutes of wall time
// away on a real-time clock.
func waitModeled(ctx context.Context, clock vclock.Clock, d time.Duration) bool {
	if ctx.Err() != nil {
		return false
	}
	if d <= 0 {
		return true
	}
	done := make(chan struct{})
	t := clock.AfterFunc(d, func() { close(done) })
	select {
	case <-ctx.Done():
		t.Stop()
		return false
	case <-done:
		return true
	}
}
