// Package vclock provides scaled virtual clocks for accelerator simulation.
//
// The KaaS accelerator simulators express costs in modeled time (the time
// scale of the paper's hardware: hundreds of milliseconds of CUDA context
// creation, seconds of kernel execution). Running experiments at that scale
// would take hours, so the runtime executes against a Clock that maps
// modeled durations onto a scaled-down wall clock. A scale of 1000 means
// one modeled second passes in one wall millisecond.
//
// All components of the runtime take a Clock so that tests can use a large
// scale factor for speed, and so the server can run in real time when
// deployed as an actual service.
package vclock

import (
	"sync"
	"time"
)

// Clock is the time source used by the KaaS runtime and the device
// simulators. Now and Sleep operate in modeled time.
type Clock interface {
	// Now returns the current modeled time.
	Now() time.Time

	// Sleep blocks for the given modeled duration.
	Sleep(d time.Duration)

	// AfterFunc calls f in its own goroutine after the given modeled
	// duration. The returned Timer can be used to cancel the call.
	AfterFunc(d time.Duration, f func()) Timer

	// Scale returns the number of modeled seconds that pass per wall
	// second. A real-time clock returns 1.
	Scale() float64
}

// Timer is a handle to a pending AfterFunc call.
type Timer interface {
	// Stop prevents the timer from firing. It reports whether the call
	// was stopped before it ran.
	Stop() bool
}

// Real returns a Clock backed directly by the wall clock (scale 1).
func Real() Clock { return realClock{} }

type realClock struct{}

var _ Clock = realClock{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }
func (realClock) Scale() float64        { return 1 }

func (realClock) AfterFunc(d time.Duration, f func()) Timer {
	return stdTimer{t: time.AfterFunc(d, f)}
}

type stdTimer struct{ t *time.Timer }

func (s stdTimer) Stop() bool { return s.t.Stop() }

// Scaled returns a Clock whose modeled time runs scale times faster than
// the wall clock. Modeled time starts at the wall time of creation so that
// timestamps remain recognizable. A scale of 1000 turns a modeled second
// into a wall millisecond.
func Scaled(scale float64) Clock {
	if scale <= 0 {
		scale = 1
	}
	return &scaledClock{
		scale:        scale,
		epoch:        time.Now(),
		dispatchWait: newDispatchWait(),
	}
}

type scaledClock struct {
	scale float64
	epoch time.Time

	// Pending AfterFunc timers, dispatched by a single goroutine per
	// clock: one waiter on the earliest deadline costs far less than a
	// waiting goroutine per timer, which matters under load — the
	// scheduling engines re-arm a timer on every job arrival and
	// completion.
	mu           sync.Mutex
	timers       timerHeap
	running      bool
	dispatchWait // how the dispatcher waits and is woken; guarded by mu
}

var _ Clock = (*scaledClock)(nil)

func (c *scaledClock) Now() time.Time {
	wall := time.Since(c.epoch)
	return c.epoch.Add(time.Duration(float64(wall) * c.scale))
}

func (c *scaledClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(c.toWall(d))
	sleepUntil(deadline)
}

// AfterFunc registers the callback on the clock's timer wheel. All of a
// clock's pending timers share one dispatcher goroutine that waits toward
// the earliest deadline the way Sleep does: on Linux it parks on a timerfd
// until a short tail before the deadline and spins only that tail, so
// callbacks fire within microseconds of their wall deadline without the
// dispatcher holding the CPU while it waits; elsewhere it sleeps on a
// runtime timer and spins the last 2 ms. A new earliest timer, or Stop of
// the earliest, cuts the dispatcher's wait short. Callbacks run
// sequentially on the dispatcher goroutine (never on the caller's), so
// they must not block for long.
func (c *scaledClock) AfterFunc(d time.Duration, f func()) Timer {
	t := &wheelTimer{
		c:        c,
		deadline: time.Now().Add(c.toWall(d)),
		f:        f,
	}
	c.mu.Lock()
	c.timers.push(t)
	if !c.running {
		c.running = true
		go c.dispatch()
	} else if c.timers[0] == t {
		// A new earliest deadline: the dispatcher must not oversleep
		// past it.
		c.wakeLocked(t.deadline)
	}
	c.mu.Unlock()
	return t
}

// dispatch runs a clock's due timers until none are pending.
func (c *scaledClock) dispatch() {
	var due []*wheelTimer
	for {
		due = due[:0]
		c.mu.Lock()
		now := time.Now()
		for len(c.timers) > 0 {
			t := c.timers[0]
			if t.stopped {
				c.timers.pop()
				continue
			}
			if t.deadline.After(now) {
				break
			}
			t.fired = true
			c.timers.pop()
			due = append(due, t)
		}
		if len(due) > 0 {
			c.mu.Unlock()
			for _, t := range due {
				t.f()
			}
			continue
		}
		if len(c.timers) == 0 {
			c.running = false
			c.mu.Unlock()
			return
		}
		c.waitLocked(c.timers[0].deadline)
	}
}

// wheelTimer is one pending AfterFunc registration on a scaled clock.
// Stopped entries stay in the heap and are discarded when they surface
// at the top — cheaper than mid-heap removal under the engines'
// constant re-arming.
type wheelTimer struct {
	c        *scaledClock
	deadline time.Time
	f        func()
	stopped  bool // guarded by c.mu
	fired    bool // guarded by c.mu
}

func (t *wheelTimer) Stop() bool {
	c := t.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.stopped || t.fired {
		return false
	}
	// Marked only: the dispatcher discards stopped entries when they
	// surface at the top of the heap.
	t.stopped = true
	if c.timers[0] == t {
		// The dispatcher is waiting toward this timer's deadline; wake
		// it at once so it re-reads the heap (and can exit if nothing
		// is left) instead of holding its goroutine until the stale
		// deadline.
		c.wakeLocked(time.Time{})
	}
	return true
}

// timerHeap is a min-heap of pending timers ordered by wall deadline.
type timerHeap []*wheelTimer

func (h *timerHeap) push(t *wheelTimer) {
	*h = append(*h, t)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !(*h)[i].deadline.Before((*h)[parent].deadline) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

// pop removes the earliest timer.
func (h *timerHeap) pop() {
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	(*h)[n] = nil
	*h = (*h)[:n]
	i := 0
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && (*h)[left].deadline.Before((*h)[smallest].deadline) {
			smallest = left
		}
		if right < n && (*h)[right].deadline.Before((*h)[smallest].deadline) {
			smallest = right
		}
		if smallest == i {
			return
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
}

func (c *scaledClock) Scale() float64 { return c.scale }

func (c *scaledClock) toWall(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	w := time.Duration(float64(d) / c.scale)
	if w <= 0 {
		w = time.Nanosecond
	}
	return w
}

// Manual is a Clock driven entirely by explicit Advance calls, for
// deterministic tests. Sleep blocks until enough virtual time has been
// advanced by another goroutine.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*manualWaiter
}

type manualWaiter struct {
	deadline time.Time
	fire     func()        // non-nil for AfterFunc waiters
	ch       chan struct{} // non-nil for Sleep waiters
	stopped  bool
}

var _ Clock = (*Manual)(nil)

// NewManual returns a Manual clock starting at the given time.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

// Now returns the current manual time.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Scale reports 0 to indicate that manual time is not tied to wall time.
func (m *Manual) Scale() float64 { return 0 }

// Sleep blocks until Advance has moved the clock d past the current time.
func (m *Manual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	m.mu.Lock()
	w := &manualWaiter{deadline: m.now.Add(d), ch: make(chan struct{})}
	m.waiters = append(m.waiters, w)
	m.mu.Unlock()
	<-w.ch
}

// AfterFunc schedules f to run when the clock has advanced past d.
func (m *Manual) AfterFunc(d time.Duration, f func()) Timer {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := &manualWaiter{deadline: m.now.Add(d), fire: f}
	if d <= 0 {
		go f()
		w.stopped = true
		return manualTimer{m: m, w: w}
	}
	m.waiters = append(m.waiters, w)
	return manualTimer{m: m, w: w}
}

type manualTimer struct {
	m *Manual
	w *manualWaiter
}

func (t manualTimer) Stop() bool {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	if t.w.stopped {
		return false
	}
	t.w.stopped = true
	return true
}

// Advance moves the clock forward by d, releasing any sleepers and firing
// any timers whose deadlines are reached.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	m.now = m.now.Add(d)
	var due []*manualWaiter
	remaining := m.waiters[:0]
	for _, w := range m.waiters {
		switch {
		case w.stopped:
			// drop
		case !w.deadline.After(m.now):
			due = append(due, w)
		default:
			remaining = append(remaining, w)
		}
	}
	m.waiters = remaining
	m.mu.Unlock()

	for _, w := range due {
		if w.ch != nil {
			close(w.ch)
		}
		if w.fire != nil {
			w.fire()
		}
	}
}
