package psched

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"kaas/internal/vclock"
)

// testClock returns a heavily scaled clock so modeled seconds cost
// microseconds of wall time.
func testClock() vclock.Clock { return vclock.Scaled(100000) }

func mustEngine(t *testing.T, clock vclock.Clock, cfg Config) *Engine {
	t.Helper()
	e, err := New(clock, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(e.Close)
	return e
}

// near reports whether got is within tol (relative) of want.
func near(got, want time.Duration, tol float64) bool {
	if want == 0 {
		return got < 50*time.Millisecond
	}
	diff := math.Abs(float64(got - want))
	return diff <= tol*float64(want)
}

func TestNewRejectsBadCapacity(t *testing.T) {
	for _, capacity := range []float64{0, -1} {
		if _, err := New(testClock(), Config{Capacity: capacity}); err == nil {
			t.Errorf("New(capacity=%v) succeeded, want error", capacity)
		}
	}
}

func TestSingleJobServiceTime(t *testing.T) {
	e := mustEngine(t, testClock(), Config{Capacity: 100})
	// 500 units at 100/s = 5 modeled seconds.
	elapsed, err := e.Run(context.Background(), 500)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !near(elapsed, 5*time.Second, 0.2) {
		t.Errorf("elapsed = %v, want ~5s", elapsed)
	}
}

func TestZeroWorkCompletesImmediately(t *testing.T) {
	e := mustEngine(t, testClock(), Config{Capacity: 1})
	elapsed, err := e.Run(context.Background(), 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if elapsed != 0 {
		t.Errorf("elapsed = %v, want 0", elapsed)
	}
	// Every header-only invocation runs a zero-byte copy and a zero-cost
	// exec through here: no job, no channel.
	if allocs := testing.AllocsPerRun(100, func() { e.Run(context.Background(), 0) }); allocs != 0 {
		t.Errorf("Run with no work: %v allocs, want 0", allocs)
	}
}

func TestNegativeWorkRejected(t *testing.T) {
	e := mustEngine(t, testClock(), Config{Capacity: 1})
	if _, err := e.Run(context.Background(), -1); err == nil {
		t.Error("Run(-1) succeeded, want error")
	}
}

func TestProcessorSharingSlowdown(t *testing.T) {
	// Scaled(1000) rather than testClock(): the ~10s expectation assumes
	// the jobs overlap fully, and at scale 100000 the µs-level skew
	// between the two goroutines' submissions costs modeled seconds.
	e := mustEngine(t, vclock.Scaled(1000), Config{Capacity: 100})
	// Two simultaneous jobs of 500 units each share capacity, so both
	// should take ~10 modeled seconds instead of 5.
	var wg sync.WaitGroup
	results := make([]time.Duration, 2)
	for i := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := e.Run(context.Background(), 500)
			if err != nil {
				t.Errorf("Run: %v", err)
			}
			results[i] = d
		}()
	}
	wg.Wait()
	for i, d := range results {
		if !near(d, 10*time.Second, 0.3) {
			t.Errorf("job %d elapsed = %v, want ~10s under 2-way sharing", i, d)
		}
	}
}

func TestFIFOSerializes(t *testing.T) {
	// A gentler scale than testClock(): the expected ~10s queue+service
	// time assumes both jobs arrive together, and at scale 100000 even a
	// few µs of goroutine-wakeup skew (tens of µs under -race) is worth
	// whole modeled seconds of queue time.
	e := mustEngine(t, vclock.Scaled(1000), Config{Capacity: 100, Discipline: FIFO})
	start := make(chan struct{})
	var wg sync.WaitGroup
	elapsedCh := make(chan time.Duration, 2)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			d, err := e.Run(context.Background(), 500)
			if err != nil {
				t.Errorf("Run: %v", err)
			}
			elapsedCh <- d
		}()
	}
	close(start)
	wg.Wait()
	close(elapsedCh)
	var all []time.Duration
	for d := range elapsedCh {
		all = append(all, d)
	}
	// One job takes ~5s, the other waits behind it: ~10s total.
	if all[0] > all[1] {
		all[0], all[1] = all[1], all[0]
	}
	if !near(all[0], 5*time.Second, 0.3) {
		t.Errorf("first job = %v, want ~5s", all[0])
	}
	if !near(all[1], 10*time.Second, 0.3) {
		t.Errorf("second job = %v, want ~10s (5s queue + 5s service)", all[1])
	}
}

func TestMaxActiveQueues(t *testing.T) {
	e := mustEngine(t, testClock(), Config{Capacity: 100, MaxActive: 2})
	// Three jobs of 500; two run concurrently (10s each under sharing),
	// third starts when one finishes.
	var wg sync.WaitGroup
	durations := make([]time.Duration, 3)
	for i := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := e.Run(context.Background(), 500)
			if err != nil {
				t.Errorf("Run: %v", err)
			}
			durations[i] = d
		}()
		time.Sleep(2 * time.Millisecond) // preserve submission order
	}
	wg.Wait()
	u := e.Usage()
	if u.PeakActive > 2 {
		t.Errorf("PeakActive = %d, want <= 2", u.PeakActive)
	}
	if u.Active != 0 || u.Queued != 0 {
		t.Errorf("after completion Active=%d Queued=%d, want 0/0", u.Active, u.Queued)
	}
}

func TestUsageAccounting(t *testing.T) {
	e := mustEngine(t, testClock(), Config{Capacity: 100})
	if _, err := e.Run(context.Background(), 1000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	u := e.Usage()
	if math.Abs(u.WorkDone-1000) > 1 {
		t.Errorf("WorkDone = %v, want ~1000", u.WorkDone)
	}
	if !near(u.BusyTime, 10*time.Second, 0.3) {
		t.Errorf("BusyTime = %v, want ~10s", u.BusyTime)
	}
	if u.PeakActive != 1 {
		t.Errorf("PeakActive = %d, want 1", u.PeakActive)
	}
}

func TestContextCancellation(t *testing.T) {
	e := mustEngine(t, testClock(), Config{Capacity: 1})
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := e.Run(ctx, 1e12) // effectively forever
		errCh <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	u := e.Usage()
	if u.Active != 0 {
		t.Errorf("Active = %d after cancel, want 0", u.Active)
	}
}

func TestCancelledJobFreesCapacity(t *testing.T) {
	e := mustEngine(t, testClock(), Config{Capacity: 100, MaxActive: 1})
	ctx, cancel := context.WithCancel(context.Background())
	blocked := make(chan error, 1)
	go func() {
		_, err := e.Run(ctx, 1e12)
		blocked <- err
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	<-blocked
	// The slot must now be free for a short job.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := e.Run(context.Background(), 100); err != nil {
			t.Errorf("Run after cancel: %v", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("job stuck behind cancelled job")
	}
}

func TestCloseReleasesWaiters(t *testing.T) {
	e, err := New(testClock(), Config{Capacity: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := e.Run(context.Background(), 1e12)
		errCh <- err
	}()
	time.Sleep(5 * time.Millisecond)
	e.Close()
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrEngineClosed) {
			t.Errorf("err = %v, want ErrEngineClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run did not return after Close")
	}
	// Submitting after close fails fast, zero work included.
	for _, work := range []float64{1, 0} {
		if _, err := e.Run(context.Background(), work); !errors.Is(err, ErrEngineClosed) {
			t.Errorf("Run(%v) after close = %v, want ErrEngineClosed", work, err)
		}
	}
	e.Close() // idempotent
}

func TestManyConcurrentJobsConserveWork(t *testing.T) {
	e := mustEngine(t, testClock(), Config{Capacity: 1000})
	const n = 20
	const each = 500.0
	var wg sync.WaitGroup
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Run(context.Background(), each); err != nil {
				t.Errorf("Run: %v", err)
			}
		}()
	}
	wg.Wait()
	u := e.Usage()
	if math.Abs(u.WorkDone-n*each) > n*each*0.01 {
		t.Errorf("WorkDone = %v, want ~%v", u.WorkDone, n*each)
	}
	// Total busy time should be close to total work / capacity since the
	// engine is work conserving: 20*500/1000 = 10s.
	if !near(u.BusyTime, 10*time.Second, 0.35) {
		t.Errorf("BusyTime = %v, want ~10s", u.BusyTime)
	}
}

func TestDisciplineString(t *testing.T) {
	tests := []struct {
		d    Discipline
		want string
	}{
		{ProcessorSharing, "processor-sharing"},
		{FIFO, "fifo"},
		{Discipline(99), "discipline(99)"},
	}
	for _, tt := range tests {
		if got := tt.d.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.d), got, tt.want)
		}
	}
}

func TestLateArrivalSharesRemainder(t *testing.T) {
	// Job A (1000 units) runs alone for ~5s, then B (250) arrives.
	// They share: B needs 250 at 50/s = 5s; A has 500 left, shares for
	// 5s (250 done), then finishes the last 250 alone in 2.5s.
	// Totals: A ~12.5s, B ~5s.
	e := mustEngine(t, vclock.Scaled(1000), Config{Capacity: 100})
	var aDur, bDur time.Duration
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		d, err := e.Run(context.Background(), 1000)
		if err != nil {
			t.Errorf("Run A: %v", err)
		}
		aDur = d
	}()
	time.Sleep(5 * time.Millisecond) // ~5 modeled seconds at scale 1000
	go func() {
		defer wg.Done()
		d, err := e.Run(context.Background(), 250)
		if err != nil {
			t.Errorf("Run B: %v", err)
		}
		bDur = d
	}()
	wg.Wait()
	if !near(aDur, 12500*time.Millisecond, 0.3) {
		t.Errorf("A = %v, want ~12.5s", aDur)
	}
	if !near(bDur, 5*time.Second, 0.3) {
		t.Errorf("B = %v, want ~5s", bDur)
	}
}

// TestWorkConservationProperty: for random job mixes under either
// discipline, total work served equals total work submitted and busy time
// never exceeds (total work / capacity) by more than rounding.
func TestWorkConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		discipline := ProcessorSharing
		if r.Intn(2) == 1 {
			discipline = FIFO
		}
		capacity := 100 + r.Float64()*900
		e, err := New(vclock.Scaled(20000), Config{Capacity: capacity, Discipline: discipline})
		if err != nil {
			return false
		}
		defer e.Close()

		n := 3 + r.Intn(6)
		var totalWork float64
		var wg sync.WaitGroup
		ok := true
		var mu sync.Mutex
		for i := 0; i < n; i++ {
			work := 10 + r.Float64()*500
			totalWork += work
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := e.Run(context.Background(), work); err != nil {
					mu.Lock()
					ok = false
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if !ok {
			return false
		}
		u := e.Usage()
		if math.Abs(u.WorkDone-totalWork) > totalWork*0.02 {
			return false
		}
		minBusy := totalWork / capacity
		// Busy time is at least the work-conserving minimum (within noise)
		// and bounded above by a generous jitter allowance.
		return u.BusyTime.Seconds() > minBusy*0.9 &&
			u.BusyTime.Seconds() < minBusy*3+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// zeroTimerClock is a manual clock that counts timers armed with no
// delay. On an exact clock such a timer fires at the instant it was
// armed, with no modeled time for the engine to serve work in.
type zeroTimerClock struct {
	*vclock.Manual
	zeroArms atomic.Int64
}

func (c *zeroTimerClock) AfterFunc(d time.Duration, f func()) vclock.Timer {
	if d <= 0 {
		c.zeroArms.Add(1)
	}
	return c.Manual.AfterFunc(d, f)
}

// TestSubNanosecondResidueFinishes: two processor-sharing jobs of 1.35
// units at 1 unit/ns each need 2.7 ns. A completion timer truncated to
// 2 ns leaves 0.7 ns of service, and a zero-delay timer armed for it
// re-fires at the same instant forever on an exact clock. The engine must
// round its timer up, never arm a zero-delay timer, and finish both jobs
// within a nanosecond of their fluid finish time.
func TestSubNanosecondResidueFinishes(t *testing.T) {
	clock := &zeroTimerClock{Manual: vclock.NewManual(time.Unix(0, 0))}
	e := mustEngine(t, clock, Config{Capacity: 1e9})
	type result struct {
		d   time.Duration
		err error
	}
	results := make(chan result, 2)
	for range 2 {
		go func() {
			d, err := e.Run(context.Background(), 1.35)
			results <- result{d, err}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Usage().Active != 2 {
		if time.Now().After(deadline) {
			t.Fatal("jobs never entered service")
		}
		time.Sleep(time.Millisecond)
	}
	// Step the clock one nanosecond at a time, as an exact clock reaches
	// each timer deadline.
	for step := 0; step < 4; step++ {
		clock.Advance(time.Nanosecond)
		if n := clock.zeroArms.Load(); n > 0 {
			t.Fatalf("engine armed %d zero-delay timers by t=%dns", n, step+1)
		}
	}
	for range 2 {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatalf("Run: %v", r.err)
			}
			if r.d < 2*time.Nanosecond || r.d > 3*time.Nanosecond {
				t.Errorf("elapsed = %v, want within 1ns of 2.7ns", r.d)
			}
		case <-time.After(time.Until(deadline)):
			t.Fatal("jobs did not finish: the sub-nanosecond residue was never retired")
		}
	}
}
