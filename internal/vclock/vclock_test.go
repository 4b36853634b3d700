package vclock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRealClockNow(t *testing.T) {
	c := Real()
	before := time.Now()
	got := c.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Errorf("Real().Now() = %v, want within [%v, %v]", got, before, after)
	}
	if c.Scale() != 1 {
		t.Errorf("Real().Scale() = %v, want 1", c.Scale())
	}
}

func TestRealClockSleep(t *testing.T) {
	c := Real()
	start := time.Now()
	c.Sleep(10 * time.Millisecond)
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("slept %v, want >= 10ms", elapsed)
	}
}

func TestRealClockAfterFunc(t *testing.T) {
	c := Real()
	done := make(chan struct{})
	c.AfterFunc(time.Millisecond, func() { close(done) })
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("AfterFunc did not fire within 1s")
	}
}

func TestRealClockAfterFuncStop(t *testing.T) {
	c := Real()
	var fired atomic.Bool
	timer := c.AfterFunc(time.Hour, func() { fired.Store(true) })
	if !timer.Stop() {
		t.Error("Stop() = false, want true for pending timer")
	}
	if fired.Load() {
		t.Error("timer fired despite Stop")
	}
}

func TestScaledClockAdvancesFaster(t *testing.T) {
	c := Scaled(1000)
	start := c.Now()
	time.Sleep(5 * time.Millisecond)
	elapsed := c.Now().Sub(start)
	// 5ms wall at scale 1000 is 5 modeled seconds.
	if elapsed < 4*time.Second {
		t.Errorf("modeled elapsed = %v, want >= 4s", elapsed)
	}
}

func TestScaledClockSleepIsShort(t *testing.T) {
	c := Scaled(1000)
	start := time.Now()
	c.Sleep(2 * time.Second) // modeled: should be ~2ms wall
	wall := time.Since(start)
	if wall > 500*time.Millisecond {
		t.Errorf("scaled sleep took %v wall time, want ~2ms", wall)
	}
}

func TestScaledClockSleepNonPositive(t *testing.T) {
	c := Scaled(1000)
	start := time.Now()
	c.Sleep(0)
	c.Sleep(-time.Second)
	if wall := time.Since(start); wall > 100*time.Millisecond {
		t.Errorf("non-positive sleeps took %v", wall)
	}
}

func TestScaledClockAfterFunc(t *testing.T) {
	c := Scaled(1000)
	done := make(chan struct{})
	c.AfterFunc(time.Second, func() { close(done) }) // ~1ms wall
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("scaled AfterFunc did not fire")
	}
}

// TestScaledSleepNeverEarly: a Sleep returns no sooner than its wall
// deadline, whether it only spins (shorter than the spin window), parks
// and then spins, or shares pooled parkers with other sleepers.
func TestScaledSleepNeverEarly(t *testing.T) {
	c := Scaled(1000).(*scaledClock)
	walls := []time.Duration{
		time.Microsecond, 20 * time.Microsecond, spinThreshold - time.Microsecond,
		spinThreshold + time.Microsecond, 200 * time.Microsecond, time.Millisecond,
		spinThreshold + 500*time.Microsecond,
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				for _, wall := range walls {
					d := time.Duration(float64(wall) * c.scale)
					start := time.Now()
					c.Sleep(d)
					if got, want := time.Since(start), c.toWall(d); got < want {
						t.Errorf("Sleep(%v) returned after %v of wall, before its %v deadline", d, got, want)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestScaledSleepAllocatesNothing: neither a wait shorter than the spin
// window nor one long enough to park allocates.
func TestScaledSleepAllocatesNothing(t *testing.T) {
	c := Scaled(1)
	for _, d := range []time.Duration{10 * time.Microsecond, 300 * time.Microsecond} {
		if allocs := testing.AllocsPerRun(20, func() { c.Sleep(d) }); allocs != 0 {
			t.Errorf("Sleep(%v): %v allocs, want 0", d, allocs)
		}
	}
}

// TestScaledAfterFuncAllocations: registering and stopping a timer costs
// one allocation (its wheelTimer), whether it becomes the earliest one,
// which wakes the waiting dispatcher, or not.
func TestScaledAfterFuncAllocations(t *testing.T) {
	c := Scaled(1).(*scaledClock)
	head := c.AfterFunc(time.Hour, func() {})
	f := func() {}
	for _, d := range []time.Duration{time.Minute, 2 * time.Hour} {
		if allocs := testing.AllocsPerRun(100, func() { c.AfterFunc(d, f).Stop() }); allocs > 1 {
			t.Errorf("AfterFunc(%v) and Stop: %v allocs, want <= 1", d, allocs)
		}
	}
	head.Stop()
	waitDispatcherExit(t, c)
}

// waitDispatcherExit waits until c's dispatcher has run out of timers.
func waitDispatcherExit(t *testing.T, c *scaledClock) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		c.mu.Lock()
		running := c.running
		c.mu.Unlock()
		if !running {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("dispatcher still running 1s after its last timer was stopped")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestScaledClockDefaultsOnBadScale(t *testing.T) {
	c := Scaled(-5)
	if c.Scale() != 1 {
		t.Errorf("Scale() = %v, want 1 for invalid input", c.Scale())
	}
}

func TestManualClockSleepBlocksUntilAdvance(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		m.Sleep(10 * time.Second)
		done.Store(true)
	}()
	time.Sleep(5 * time.Millisecond)
	if done.Load() {
		t.Fatal("Sleep returned before Advance")
	}
	m.Advance(9 * time.Second)
	time.Sleep(5 * time.Millisecond)
	if done.Load() {
		t.Fatal("Sleep returned after partial Advance")
	}
	m.Advance(time.Second)
	wg.Wait()
	if !done.Load() {
		t.Fatal("Sleep did not return after full Advance")
	}
}

func TestManualClockAfterFunc(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	var count atomic.Int32
	m.AfterFunc(5*time.Second, func() { count.Add(1) })
	m.Advance(4 * time.Second)
	if count.Load() != 0 {
		t.Fatal("AfterFunc fired early")
	}
	m.Advance(time.Second)
	if count.Load() != 1 {
		t.Fatalf("AfterFunc fired %d times, want 1", count.Load())
	}
	m.Advance(time.Hour)
	if count.Load() != 1 {
		t.Fatalf("AfterFunc fired %d times after extra advance, want 1", count.Load())
	}
}

func TestManualClockAfterFuncStop(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	var fired atomic.Bool
	timer := m.AfterFunc(5*time.Second, func() { fired.Store(true) })
	if !timer.Stop() {
		t.Error("Stop() = false, want true")
	}
	m.Advance(time.Minute)
	if fired.Load() {
		t.Error("stopped timer fired")
	}
	if timer.Stop() {
		t.Error("second Stop() = true, want false")
	}
}

func TestManualClockAfterFuncImmediate(t *testing.T) {
	m := NewManual(time.Unix(0, 0))
	done := make(chan struct{})
	m.AfterFunc(0, func() { close(done) })
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("immediate AfterFunc never fired")
	}
}

func TestManualClockNowAdvances(t *testing.T) {
	start := time.Unix(100, 0)
	m := NewManual(start)
	if !m.Now().Equal(start) {
		t.Errorf("Now() = %v, want %v", m.Now(), start)
	}
	m.Advance(42 * time.Second)
	want := start.Add(42 * time.Second)
	if !m.Now().Equal(want) {
		t.Errorf("Now() = %v, want %v", m.Now(), want)
	}
	if m.Scale() != 0 {
		t.Errorf("Manual Scale() = %v, want 0", m.Scale())
	}
}
