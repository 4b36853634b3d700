package vclock

import (
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// spinThreshold is how long before a wall deadline a scaled-clock wait
// stops parking and spins on runtime.Gosched. Before it, the goroutine
// parks on a timerfd, which wakes within ~25 µs of its expiry at p90 on
// a loaded single CPU (time.Sleep, whose wake rides the netpoller's 1 ms
// epoll timeout, overshoots by ~0.8 ms at p50); the spin absorbs that
// wake-up latency so waits end within microseconds of their deadline.
// The spin is kept this short because on one P a spinning goroutine
// keeps the run queue non-empty, and the runtime polls the network only
// when the run queue is empty or from sysmon every 10 ms: every
// microsecond of spin is a microsecond no socket is served.
const spinThreshold = 50 * time.Microsecond

// maxIdleParkers bounds the parkers kept for reuse between waits; one
// returned to a full free list is closed. Parkers are lent to a wait,
// never owned by a clock: Clock has no Close, so a per-clock descriptor
// would leak.
const maxIdleParkers = 64

// parker is a one-shot timerfd registered with the runtime's netpoller.
// A goroutine reading it is parked like one blocked on a socket, so the
// P runs other work, or blocks in epoll, until the timer expires.
type parker struct {
	f   *os.File
	fd  uintptr
	its struct{ interval, value syscall.Timespec } // struct itimerspec
	buf [8]byte                                    // expiration count
}

var idleParkers struct {
	sync.Mutex
	n  int
	ps [maxIdleParkers]*parker
}

// getParker takes an idle parker, or opens one. It returns nil when no
// timerfd can be opened (descriptors exhausted); the caller then spins.
func getParker() *parker {
	idleParkers.Lock()
	if n := idleParkers.n; n > 0 {
		p := idleParkers.ps[n-1]
		idleParkers.ps[n-1] = nil
		idleParkers.n--
		idleParkers.Unlock()
		return p
	}
	idleParkers.Unlock()
	const clockMonotonic = 1
	fd, _, errno := syscall.RawSyscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil
	}
	// A non-blocking descriptor makes os.NewFile register it with the
	// netpoller.
	return &parker{f: os.NewFile(fd, "vclock-timerfd"), fd: fd}
}

// putParker returns p to the free list after a wait, or closes it if the
// wait failed or the list is full.
func putParker(p *parker, ok bool) {
	idleParkers.Lock()
	if n := idleParkers.n; ok && n < maxIdleParkers {
		idleParkers.ps[n] = p
		idleParkers.n++
		idleParkers.Unlock()
		return
	}
	idleParkers.Unlock()
	p.f.Close()
}

// arm sets the timer to expire once, d from now, replacing any earlier
// setting and clearing an expiration not yet read. A d of zero or less
// expires at once.
func (p *parker) arm(d time.Duration) {
	if d <= 0 {
		d = 1 // an all-zero it_value would disarm the timer
	}
	p.its.value = syscall.NsecToTimespec(int64(d))
	_, _, errno := syscall.RawSyscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0,
		uintptr(unsafe.Pointer(&p.its)), 0, 0, 0)
	if errno != 0 {
		// Only a bad descriptor or a malformed itimerspec fails here.
		panic("vclock: timerfd_settime: " + errno.Error())
	}
}

// wait parks the goroutine until the armed timer expires. It reports
// false if the read failed, which leaves p unusable.
func (p *parker) wait() bool {
	_, err := p.f.Read(p.buf[:])
	return err == nil
}

// park blocks the calling goroutine for about d on a pooled parker. It
// reports false, having waited not at all, if it could not park.
func park(d time.Duration) bool {
	p := getParker()
	if p == nil {
		return false
	}
	p.arm(d)
	ok := p.wait()
	putParker(p, ok)
	return ok
}

// sleepUntil parks to spinThreshold before the wall deadline, then spins.
// A wait shorter than spinThreshold never touches a timerfd.
func sleepUntil(deadline time.Time) {
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return
		}
		if remaining > spinThreshold && park(remaining-spinThreshold) {
			continue
		}
		runtime.Gosched()
	}
}

// dispatchWait is how a scaled clock's dispatcher is woken early: while
// it is parked, parked is its parker, which a waker re-arms under c.mu.
type dispatchWait struct {
	parked *parker
}

func newDispatchWait() dispatchWait { return dispatchWait{} }

// waitLocked releases c.mu and waits toward next: parked up to
// spinThreshold before it, one Gosched inside that window. The parker is
// armed under c.mu, so a wakeLocked that follows can only re-arm it.
func (c *scaledClock) waitLocked(next time.Time) {
	remaining := time.Until(next)
	var p *parker
	if remaining > spinThreshold {
		p = getParker()
	}
	if p == nil {
		c.mu.Unlock()
		runtime.Gosched()
		return
	}
	p.arm(remaining - spinThreshold)
	c.parked = p
	c.mu.Unlock()
	ok := p.wait()
	c.mu.Lock()
	c.parked = nil
	c.mu.Unlock()
	putParker(p, ok)
}

// wakeLocked re-arms a parked dispatcher to wake spinThreshold before at
// (at once for the zero time). A dispatcher that is not parked re-reads
// the heap before it next parks, so it needs no wake.
func (c *scaledClock) wakeLocked(at time.Time) {
	if c.parked == nil {
		return
	}
	var d time.Duration
	if remaining := time.Until(at); remaining > spinThreshold {
		d = remaining - spinThreshold
	}
	c.parked.arm(d)
}
