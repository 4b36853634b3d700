//go:build !linux

package vclock

import (
	"runtime"
	"time"
)

// spinThreshold is the wall-time window near a deadline within which the
// scaled clock spins on runtime.Gosched instead of sleeping. time.Sleep
// routinely overshoots by a millisecond or more (measured up to ~4 ms on
// loaded single-core hosts); at high scale factors that overshoot would
// inflate modeled durations by whole seconds, so the clock sleeps to 2 ms
// before the deadline and spins the rest. The spin is not free: it holds
// the CPU for up to 2 ms per wait, and on one P it keeps the run queue
// non-empty, so the runtime does not poll the network until sysmon's next
// 10 ms sweep. Linux parks on a timerfd instead and spins only a short
// tail (park_linux.go).
const spinThreshold = 2 * time.Millisecond

// dispatchWait is how a scaled clock's dispatcher is woken early: a
// one-slot token channel it selects on while it sleeps or spins.
type dispatchWait struct {
	wake chan struct{}
}

func newDispatchWait() dispatchWait {
	return dispatchWait{wake: make(chan struct{}, 1)}
}

// sleepUntil sleeps coarsely to near the wall deadline, then spins.
func sleepUntil(deadline time.Time) {
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return
		}
		if remaining > spinThreshold {
			time.Sleep(remaining - spinThreshold)
			continue
		}
		runtime.Gosched()
	}
}

// waitLocked releases c.mu and waits toward next: a timer sleep up to
// the spin window, one Gosched inside it. A wake token cuts either short.
func (c *scaledClock) waitLocked(next time.Time) {
	c.mu.Unlock()
	if remaining := time.Until(next); remaining > spinThreshold {
		timer := time.NewTimer(remaining - spinThreshold)
		select {
		case <-timer.C:
		case <-c.wake:
			timer.Stop()
		}
	} else {
		select {
		case <-c.wake:
		default:
			runtime.Gosched()
		}
	}
}

// wakeLocked pokes the dispatcher out of its wait so it re-reads the
// heap; the token is kept if it is not waiting yet.
func (c *scaledClock) wakeLocked(time.Time) {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}
