package vclock

import (
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestSleepingClockLeavesNetpollerFree: on one P, a goroutine looping on
// 1 ms scaled-clock sleeps must not hold the run queue for the length of
// each sleep. If it spins there, the runtime polls the network only from
// sysmon every 10 ms and a loopback ping-pong's round trip grows from
// microseconds to ~20 ms.
func TestSleepingClockLeavesNetpollerFree(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		var b [1]byte
		for {
			if _, err := conn.Read(b[:]); err != nil {
				return
			}
			if _, err := conn.Write(b[:]); err != nil {
				return
			}
		}
	}()
	stop := make(chan struct{})
	go func() {
		defer wg.Done()
		c := Scaled(1)
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Sleep(time.Millisecond)
		}
	}()
	defer wg.Wait()
	defer close(stop)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	const pings = 50
	rtts := make([]time.Duration, 0, pings)
	var b [1]byte
	for i := 0; i < pings; i++ {
		start := time.Now()
		if _, err := conn.Write(b[:]); err != nil {
			t.Fatalf("write: %v", err)
		}
		if _, err := conn.Read(b[:]); err != nil {
			t.Fatalf("read: %v", err)
		}
		rtts = append(rtts, time.Since(start))
	}
	slices.Sort(rtts)
	if med := rtts[pings/2]; med >= time.Millisecond {
		t.Errorf("loopback RTT median = %v beside a sleeping clock, want < 1ms (max %v)", med, rtts[pings-1])
	}
}

// waitParked waits until c's dispatcher is parked on a timerfd.
func waitParked(t *testing.T, c *scaledClock) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		c.mu.Lock()
		parked := c.parked != nil
		c.mu.Unlock()
		if parked {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("dispatcher never parked")
		}
		runtime.Gosched()
	}
}

// TestEarlierAfterFuncCutsParkShort: while the dispatcher is parked
// toward a deadline a second away, a new earlier timer fires on time,
// not when the park would have ended.
func TestEarlierAfterFuncCutsParkShort(t *testing.T) {
	c := Scaled(1).(*scaledClock)
	later := c.AfterFunc(time.Second, func() {})
	waitParked(t, c)
	const d = 2 * time.Millisecond
	fired := make(chan time.Time, 1)
	start := time.Now()
	c.AfterFunc(d, func() { fired <- time.Now() })
	select {
	case at := <-fired:
		if got := at.Sub(start); got < d || got > d+100*time.Millisecond {
			t.Errorf("earlier timer fired after %v, want within 100ms after %v", got, d)
		}
	case <-time.After(500 * time.Millisecond):
		t.Fatal("earlier timer did not fire while the dispatcher was parked toward a later deadline")
	}
	later.Stop()
	waitDispatcherExit(t, c)
}

// TestStopOfHeadEndsPark: stopping the timer a parked dispatcher waits
// for wakes it, so it exits and returns its parker at once rather than
// when the stale deadline comes.
func TestStopOfHeadEndsPark(t *testing.T) {
	c := Scaled(1).(*scaledClock)
	timer := c.AfterFunc(time.Hour, func() {})
	waitParked(t, c)
	timer.Stop()
	waitDispatcherExit(t, c)
}

func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot list descriptors: %v", err)
	}
	return len(ents)
}

// TestParkersAreBoundedAcrossClocks: creating a clock opens nothing and
// starts nothing, a wait shorter than the spin window never takes a
// parker, and 1000 clocks that each park leave at most the free list's
// capacity of descriptors open once their waits end.
func TestParkersAreBoundedAcrossClocks(t *testing.T) {
	Scaled(1).Sleep(time.Millisecond) // the netpoller's own descriptors
	fds, goroutines := openFDs(t), runtime.NumGoroutine()
	clocks := make([]Clock, 1000)
	for i := range clocks {
		clocks[i] = Scaled(1000)
	}
	if got := openFDs(t); got > fds {
		t.Errorf("creating 1000 clocks grew open descriptors %d -> %d", fds, got)
	}
	if got := runtime.NumGoroutine(); got > goroutines {
		t.Errorf("creating 1000 clocks grew goroutines %d -> %d", goroutines, got)
	}

	// With the free list drained, a short wait that took a parker would
	// have to open one.
	var held []*parker
	for {
		idleParkers.Lock()
		n := idleParkers.n
		idleParkers.Unlock()
		if n == 0 {
			break
		}
		held = append(held, getParker())
	}
	fds = openFDs(t)
	for _, c := range clocks {
		c.Sleep(time.Duration(float64(spinThreshold) * 1000 / 2))
	}
	if got := openFDs(t); got > fds {
		t.Errorf("short sleeps grew open descriptors %d -> %d", fds, got)
	}
	for _, p := range held {
		putParker(p, true)
	}

	fds = openFDs(t)
	for round := 0; round < 10; round++ {
		var wg sync.WaitGroup
		for _, c := range clocks[round*100 : (round+1)*100] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fired := make(chan struct{})
				c.AfterFunc(500*time.Millisecond, func() { close(fired) }) // 0.5 ms wall
				c.Sleep(time.Second)
				<-fired
			}()
		}
		wg.Wait()
	}
	if got := openFDs(t); got > fds+maxIdleParkers {
		t.Errorf("1000 parking clocks grew open descriptors %d -> %d, want at most +%d", fds, got, maxIdleParkers)
	}
}
