package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"kaas/internal/accel"
	"kaas/internal/artifact"
	"kaas/internal/faults"
	"kaas/internal/vclock"
)

// pollUntil spins (in wall time) until cond returns true or the deadline
// passes, failing the test on timeout. Modeled time advances on its own
// under a scaled clock, so polling is how tests wait for reaper and
// pre-warm timers to fire.
func pollUntil(t *testing.T, wait time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(wait)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestArtifactCacheColdThenCachedCold drives the full cold / cached-cold
// split: the first boot of a kernel pays JIT compilation and publishes
// the artifact; after the runner scales to zero, the next boot hits the
// cache and skips compilation entirely.
func TestArtifactCacheColdThenCachedCold(t *testing.T) {
	cache := artifact.NewCache(64 << 20)
	s, _, _ := newTestServer(t, 1, func(cfg *Config) {
		// 30 s modeled is 6 ms of wall at this scale: cheap to wait out
		// below, and wide enough that a stalled test goroutine does not
		// let the reaper in between the cached-cold and the warm call.
		cfg.KeepAlive = KeepAlive{Idle: 30 * time.Second}
		cfg.Artifacts = cache
	})
	k := &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}

	_, r1, err := s.Invoke(context.Background(), "k", nil)
	if err != nil {
		t.Fatalf("Invoke 1: %v", err)
	}
	if !r1.Cold || r1.CachedCold {
		t.Errorf("first invoke: Cold=%v CachedCold=%v, want cold and uncached", r1.Cold, r1.CachedCold)
	}
	if r1.Breakdown.Compile <= 0 {
		t.Errorf("first cold start Compile = %v, want > 0 (JIT on cache miss)", r1.Breakdown.Compile)
	}

	// Let the keepalive reaper scale the kernel to zero, so the next
	// invocation is a genuine cold start against a warm cache.
	pollUntil(t, 5*time.Second, "runner reap", func() bool { return s.Stats().Runners == 0 })

	_, r2, err := s.Invoke(context.Background(), "k", nil)
	if err != nil {
		t.Fatalf("Invoke 2: %v", err)
	}
	if !r2.Cold || !r2.CachedCold {
		t.Errorf("second invoke: Cold=%v CachedCold=%v, want cached-cold", r2.Cold, r2.CachedCold)
	}
	if r2.Breakdown.Compile != 0 {
		t.Errorf("cached-cold Compile = %v, want 0 (compilation skipped)", r2.Breakdown.Compile)
	}
	// The compile phase dominates the boot, so the cache hit must be
	// visibly faster even through wall-clock jitter.
	if gain := r1.Breakdown.Total() - r2.Breakdown.Total(); gain < 2*time.Second {
		t.Errorf("cached-cold saved only %v over cold (cold %v, cached %v)",
			gain, r1.Breakdown.Total(), r2.Breakdown.Total())
	}

	// Last rung of the ladder: the rebooted runner is kept, so the next
	// call is warm — no boot, no compile, no third cold start below.
	_, r3, err := s.Invoke(context.Background(), "k", nil)
	if err != nil {
		t.Fatalf("Invoke 3: %v", err)
	}
	if r3.Cold || r3.Breakdown.Compile != 0 {
		t.Errorf("third invoke: Cold=%v Compile=%v, want warm with no compile", r3.Cold, r3.Breakdown.Compile)
	}

	st := s.Stats()
	ks := st.PerKernel["k"]
	if ks.CacheHits != 1 || ks.CacheMisses != 1 {
		t.Errorf("cache hits/misses = %d/%d, want 1/1", ks.CacheHits, ks.CacheMisses)
	}
	if ks.ColdStarts != 2 {
		t.Errorf("ColdStarts = %d, want 2", ks.ColdStarts)
	}
	if ks.Cold.Count != 1 || ks.CachedCold.Count != 1 {
		t.Errorf("latency counts cold/cached-cold = %d/%d, want 1/1", ks.Cold.Count, ks.CachedCold.Count)
	}
	if st.ArtifactCache == nil {
		t.Fatal("Stats.ArtifactCache = nil with a cache configured")
	}
	if st.ArtifactCache.Entries != 1 || st.ArtifactCache.Hits != 1 || st.ArtifactCache.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 entry, 1 hit, 1 miss", *st.ArtifactCache)
	}
}

// prewarmConfig is the keepalive shape shared by the pre-warm tests:
// generous modeled margins so wall-clock jitter at scale 5000 cannot
// blur the reap / predict / boot sequence.
func prewarmConfig(cfg *Config) {
	cfg.KeepAlive = KeepAlive{
		Idle:        60 * time.Second,
		SweepEvery:  10 * time.Second,
		PreWarmLead: 30 * time.Second,
	}
}

// TestScaleToZeroThenPreWarmServesWarm teaches the idle-gap estimator
// one diurnal period and checks the predicted boot lands before the next
// arrival: invocation three finds a pre-warmed runner and is served warm.
func TestScaleToZeroThenPreWarmServesWarm(t *testing.T) {
	s, _, clock := newTestServer(t, 1, prewarmConfig)
	k := &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}

	// Arrival one: cold, and the estimator has no gap yet.
	if _, r, err := s.Invoke(context.Background(), "k", nil); err != nil || !r.Cold {
		t.Fatalf("Invoke 1: err=%v cold=%v, want cold success", err, r != nil && r.Cold)
	}

	// One full idle period (>> keepalive): the runner is reaped, and no
	// pre-warm can fire because no idle gap has been observed yet.
	clock.Sleep(120 * time.Second)
	if st := s.Stats(); st.Runners != 0 || st.PreWarms != 0 {
		t.Fatalf("after first idle period: Runners=%d PreWarms=%d, want 0/0", st.Runners, st.PreWarms)
	}

	// Arrival two: still cold, but now the estimator learns the gap.
	if _, r, err := s.Invoke(context.Background(), "k", nil); err != nil || !r.Cold {
		t.Fatalf("Invoke 2: err=%v cold=%v, want cold success", err, r != nil && r.Cold)
	}

	// Scale to zero again; the reaper hands the kernel to the pre-warm
	// predictor, which boots a runner ahead of the predicted arrival.
	pollUntil(t, 5*time.Second, "pre-warmed runner", func() bool {
		st := s.Stats()
		return st.PreWarms == 1 && st.Runners == 1
	})

	// Arrival three, near the predicted time: served by the speculative
	// runner, so it is not a cold start.
	_, r3, err := s.Invoke(context.Background(), "k", nil)
	if err != nil {
		t.Fatalf("Invoke 3: %v", err)
	}
	if r3.Cold {
		t.Errorf("third invoke was cold despite a pre-warmed runner")
	}
	ks := s.Stats().PerKernel["k"]
	if ks.PreWarms != 1 {
		t.Errorf("PreWarms = %d, want exactly 1 (one boot per real arrival)", ks.PreWarms)
	}
	if ks.ColdStarts != 3 {
		// Two demand-driven boots plus the speculative one.
		t.Errorf("ColdStarts = %d, want 3", ks.ColdStarts)
	}
}

// TestPreWarmNoLeakWhenDemandNeverArrives: a speculative runner whose
// predicted demand never materializes must be retired by the normal
// keepalive reaper — no runner left behind, no goroutine leaked, and no
// re-boot loop burning device-seconds.
func TestPreWarmNoLeakWhenDemandNeverArrives(t *testing.T) {
	faults.GuardGoroutines(t)
	s, _, clock := newTestServer(t, 1, prewarmConfig)
	k := &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}

	if _, _, err := s.Invoke(context.Background(), "k", nil); err != nil {
		t.Fatalf("Invoke 1: %v", err)
	}
	// The learned idle gap sets the boot time: PreWarmLead ahead of the
	// predicted arrival, so about 600 - 70 - 30 = 500 modeled seconds
	// (100 ms of wall time) after the sweep that reaps the second runner.
	// With a short gap, a sweep delayed a few wall milliseconds finds the
	// predicted arrival already past and never boots at all.
	clock.Sleep(600 * time.Second)
	if _, _, err := s.Invoke(context.Background(), "k", nil); err != nil {
		t.Fatalf("Invoke 2: %v", err)
	}

	// The predictor boots one runner for the arrival that never comes.
	// PreWarms counts it right after the runner exists and never falls,
	// so this poll cannot miss a runner the reaper retires early...
	pollUntil(t, 5*time.Second, "pre-warmed runner", func() bool {
		return s.Stats().PreWarms == 1
	})
	// ...and the reaper retires it after the keepalive window.
	pollUntil(t, 5*time.Second, "speculative runner reaped", func() bool {
		return s.Stats().Runners == 0
	})

	// No re-boot: the kernel is pre-warmed at most once per real arrival,
	// so a missed prediction cannot start a warm/reap thrash loop. Give
	// another sweep interval a chance to misbehave before asserting.
	clock.Sleep(30 * time.Second)
	st := s.Stats()
	if st.PreWarms != 1 {
		t.Errorf("PreWarms = %d after missed prediction, want still 1 (no thrash loop)", st.PreWarms)
	}
	if st.Runners != 0 {
		t.Errorf("Runners = %d, want 0 (speculative runner leaked)", st.Runners)
	}
}

// TestEvictRetrySliceScalesWithClock pins the unit fix: the retry slice
// handed to dev.AcquireWithin is a wall duration derived from a modeled
// budget, so the re-check cadence is the same number of modeled
// milliseconds on every clock. The original constant was 2ms of wall
// time, which a scale-5000 test clock stretched to 10 modeled seconds
// of dead wait per retry.
func TestEvictRetrySliceScalesWithClock(t *testing.T) {
	cases := []struct {
		name  string
		clock vclock.Clock
		want  time.Duration
	}{
		// Real time: the modeled budget passes through unchanged.
		{"real", vclock.Real(), evictRetrySliceModeled},
		// Scaled 5000x: 25ms/5000 = 5us of wall time would busy-spin, so
		// the floor applies (still only 0.25 modeled seconds per retry).
		{"scaled", vclock.Scaled(5000), evictRetrySliceFloor},
		// Mildly scaled: straight division.
		{"scaled-10x", vclock.Scaled(10), evictRetrySliceModeled / 10},
		// Manual clocks advance only when driven, so no wall conversion
		// exists; the floor keeps the loop live without spinning.
		{"manual", vclock.NewManual(time.Unix(0, 0)), evictRetrySliceFloor},
	}
	for _, tc := range cases {
		s := &Server{env: &env{clock: tc.clock}}
		if got := s.evictRetrySlice(); got != tc.want {
			t.Errorf("%s: evictRetrySlice() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestBlockedColdStartRechecksInModeledTime is the behavioral side of
// the retry-slice fix: on a saturated single-slot device the losing cold
// start's wait is bounded by the winner's occupancy plus a modeled-time
// retry slice — not quantized to multi-second steps by a wall-time
// timeout misread under a scaled clock.
func TestBlockedColdStartRechecksInModeledTime(t *testing.T) {
	// One contention round: warm an idle ka runner onto the only slot,
	// then cold-start kb and kc concurrently and return the larger of
	// the two RuntimeInit phases — the losing cold start's wait.
	round := func() time.Duration {
		s, _ := newSingleSlotServer(t)
		for _, name := range []string{"ka", "kb", "kc"} {
			k := &fakeKernel{name: name, kind: accel.GPU, cost: stdCost()}
			if err := s.Register(k); err != nil {
				t.Fatalf("Register %s: %v", name, err)
			}
		}
		if _, _, err := s.Invoke(context.Background(), "ka", nil); err != nil {
			t.Fatalf("Invoke ka: %v", err)
		}

		var wg sync.WaitGroup
		reports := make([]*Report, 2)
		errs := make([]error, 2)
		for i, name := range []string{"kb", "kc"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, reports[i], errs[i] = s.Invoke(context.Background(), name, nil)
			}()
		}
		wg.Wait()
		var worst time.Duration
		for i, err := range errs {
			if err != nil {
				t.Fatalf("contending invoke %d: %v", i, err)
			}
			if reports[i].Breakdown.RuntimeInit > worst {
				worst = reports[i].Breakdown.RuntimeInit
			}
		}
		s.Close()
		return worst
	}

	// The loser's wait is the winner's ~0.5s occupancy plus retry
	// slices of 0.25 modeled seconds — though a coarse OS timer can
	// stretch any one slice to several modeled seconds at this clock
	// scale, so take the best of a few rounds. The old wall-time slice
	// meant even the first retry blocked for 10 modeled seconds, giving
	// the pre-fix code a hard floor above 10s in EVERY round no matter
	// how quickly the slot frees — the bound splits the two regimes.
	best := round()
	for i := 0; i < 4 && best >= 9*time.Second; i++ {
		if w := round(); w < best {
			best = w
		}
	}
	if best >= 9*time.Second {
		t.Errorf("losing cold start waited %v for the slot in the best round, want < 9s of modeled time", best)
	}
}

// TestColdStartsOverlapOnFullDevice: two cold starts on a device whose
// slots all hold idle runners of other kernels each evict one runner and
// pay RuntimeInit side by side. Slot pressure counts a context from the
// moment its slot is taken; if it counted only contexts past
// RuntimeInit, the second cold start would see a free slot while the
// first was still initializing, evict nothing, and wait out the first's
// init before paying its own — about twice the profile's RuntimeInit.
func TestColdStartsOverlapOnFullDevice(t *testing.T) {
	// Scale 10: an init is 40ms of wall time, so wall noise is small
	// against the 1.5x bound and the serialized 2x is far above it.
	clock := vclock.Scaled(10)
	gpu := testGPUProfile()
	gpu.Slots = 2
	host, err := accel.NewHost(clock, "test", accel.XeonE52698, gpu)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	t.Cleanup(host.Close)
	s, err := New(Config{Clock: clock, Host: host})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(s.Close)
	for _, name := range []string{"ka", "kb", "kc", "kd"} {
		if err := s.Register(&fakeKernel{name: name, kind: accel.GPU, cost: stdCost()}); err != nil {
			t.Fatalf("Register %s: %v", name, err)
		}
	}
	// Idle runners of ka and kb take both slots.
	for _, name := range []string{"ka", "kb"} {
		if _, _, err := s.Invoke(context.Background(), name, nil); err != nil {
			t.Fatalf("Invoke %s: %v", name, err)
		}
	}

	var wg sync.WaitGroup
	reports := make([]*Report, 2)
	errs := make([]error, 2)
	for i, name := range []string{"kc", "kd"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, reports[i], errs[i] = s.Invoke(context.Background(), name, nil)
		}()
	}
	wg.Wait()
	limit := gpu.RuntimeInit * 3 / 2
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cold start %d: %v", i, err)
		}
		if !reports[i].Cold {
			t.Errorf("invocation %d was warm, want a cold start", i)
		}
		if got := reports[i].Breakdown.RuntimeInit; got >= limit {
			t.Errorf("cold start %d paid RuntimeInit %v, want < %v (1.5x the profile's %v)", i, got, limit, gpu.RuntimeInit)
		}
	}
	if got := s.Stats().Evictions; got != 2 {
		t.Errorf("evictions = %d, want 2", got)
	}
}

// TestFailoverKeepsSiblingClaimAccounting pins the failover bookkeeping
// fix: when a device fails with several invocations in flight on one
// runner, the first to observe the failure retires the runner, and the
// siblings' claim releases must still balance to exactly zero. The old
// path released the retirer's claim and then decremented again inside
// removal, driving the runner's in-flight count negative — accounting
// drift that made claimed runners look reapable.
func TestFailoverKeepsSiblingClaimAccounting(t *testing.T) {
	// No breaker: the siblings' failures together would open it, and the
	// slower one's retry would be answered ErrUnavailable instead of
	// reaching the failed device. This test is about claim accounting.
	s, host, _ := newTestServer(t, 1, func(cfg *Config) { cfg.BreakerThreshold = -1 })
	dev := host.Devices()[0]

	arrived := make(chan struct{}, 2)
	release := make(chan struct{})
	k := &execHookKernel{
		fakeKernel: &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()},
		onExecute: func() {
			arrived <- struct{}{}
			<-release
		},
	}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}

	// Warm one runner, then capture it. The warm-up invocation must not
	// block in the execute hook.
	close(release)
	if _, _, err := s.Invoke(context.Background(), "k", nil); err != nil {
		t.Fatalf("warm-up Invoke: %v", err)
	}
	for len(arrived) > 0 {
		<-arrived
	}
	release = make(chan struct{})
	k.onExecute = func() {
		arrived <- struct{}{}
		<-release
	}
	e := (*s.table.Load())["k"]
	e.mu.Lock()
	if n := len(e.runners); n != 1 {
		e.mu.Unlock()
		t.Fatalf("runners = %d after warm-up, want 1", n)
	}
	r0 := e.runners[0]
	e.mu.Unlock()

	// Two invocations in flight on the same runner, both held at the
	// execute hook; fail the device under them, then let them proceed
	// into the failure.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, errs[i] = s.Invoke(context.Background(), "k", nil)
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-arrived:
		case <-time.After(5 * time.Second):
			t.Fatal("invocations never reached the execute hook")
		}
	}
	dev.Fail()
	close(release)
	wg.Wait()

	// With the only device failed, both invocations exhaust failover.
	for i, err := range errs {
		if !errors.Is(err, accel.ErrDeviceFailed) {
			t.Errorf("invoke %d err = %v, want ErrDeviceFailed", i, err)
		}
	}
	e.mu.Lock()
	removed, inflight := r0.removed, r0.inflight
	e.mu.Unlock()
	if !removed {
		t.Error("failed runner was not retired")
	}
	if inflight != 0 {
		t.Errorf("retired runner in-flight count = %d, want exactly 0", inflight)
	}
}

// TestReaperNeverStealsClaimedRunners stresses the reap/claim interlock:
// invocations arriving right at the keepalive boundary race the sweep
// that wants to retire their runner. Every invocation must succeed — a
// reaped runner releasing its device context under a claimed invocation
// would surface as spurious context errors — while reaps still happen.
func TestReaperNeverStealsClaimedRunners(t *testing.T) {
	s, _, clock := newTestServer(t, 1, func(cfg *Config) {
		cfg.KeepAlive = KeepAlive{Idle: 2 * time.Second, SweepEvery: time.Second}
	})
	k := &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()}
	if err := s.Register(k); err != nil {
		t.Fatalf("Register: %v", err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 3*40)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, _, err := s.Invoke(context.Background(), "k", nil); err != nil {
					errCh <- err
					return
				}
				// Idle gaps straddle the keepalive window — some right at
				// the boundary so claims and sweeps collide, some several
				// windows long so reaps are sure to land.
				clock.Sleep(time.Duration(i%4) * 2 * time.Second)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("invocation failed under reap churn: %v", err)
	}
	if st := s.Stats(); st.Reaps == 0 {
		t.Error("no reaps happened; the stress never exercised the interlock")
	}
}

// TestAbortedColdStartCountsOnce pins the double-count fix: when a
// spawner's context dies mid-boot and a queued waiter respawns on a
// fresh runner, the kernel is charged one completed cold start, and the
// waiters' breakdowns carry exactly one spawn quantum between them — the
// aborted boot's phases are not double-counted against the winner.
func TestAbortedColdStartCountsOnce(t *testing.T) {
	const spawnCost = 100 * time.Millisecond
	cases := []struct {
		name    string
		waiters int
	}{
		{"one waiter", 1},
		{"two waiters", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := vclock.Scaled(5000)
			gpu := testGPUProfile()
			gpu.Slots = 1
			host, err := accel.NewHost(clock, "test", accel.XeonE52698, gpu)
			if err != nil {
				t.Fatalf("NewHost: %v", err)
			}
			t.Cleanup(host.Close)
			s, err := New(Config{Clock: clock, Host: host, RunnerSpawnCost: spawnCost})
			if err != nil {
				t.Fatalf("New: %v", err)
			}
			t.Cleanup(s.Close)
			k := &fakeKernel{name: "k", kind: accel.GPU, cost: stdCost()}
			if err := s.Register(k); err != nil {
				t.Fatalf("Register: %v", err)
			}

			// Hold the device's only slot so the spawner's boot blocks
			// until its context gives up.
			held, err := host.Devices()[0].Acquire(context.Background())
			if err != nil {
				t.Fatalf("Acquire: %v", err)
			}

			// The doomed spawner: its context dies while the cold start
			// waits on the held slot.
			ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
			defer cancel()
			spawnerDone := make(chan error, 1)
			go func() {
				_, _, err := s.Invoke(ctx, "k", nil)
				spawnerDone <- err
			}()
			pollUntil(t, 2*time.Second, "spawner's runner", func() bool {
				return s.Stats().Runners == 1
			})

			// The waiters queue on the doomed runner before it aborts.
			var wg sync.WaitGroup
			reports := make([]*Report, tc.waiters)
			errs := make([]error, tc.waiters)
			for i := 0; i < tc.waiters; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, reports[i], errs[i] = s.Invoke(context.Background(), "k", nil)
				}()
			}
			pollUntil(t, 2*time.Second, "waiters to queue", func() bool {
				return s.Stats().PerKernel["k"].QueueDepth == int64(tc.waiters)
			})

			if err := <-spawnerDone; !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("spawner err = %v, want DeadlineExceeded", err)
			}
			// Free the slot; the waiters' respawn can now boot.
			held.Release()
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("waiter %d: %v", i, err)
				}
			}

			// One completed cold start, no matter how many runners were
			// created along the way.
			st := s.Stats()
			if got := st.PerKernel["k"].ColdStarts; got != 1 {
				t.Errorf("kernel ColdStarts = %d, want 1 (aborted boot must not count)", got)
			}
			if st.ColdStarts != 1 {
				t.Errorf("server ColdStarts = %d, want 1", st.ColdStarts)
			}
			// Exactly one spawn quantum across all waiters: the winner of
			// the respawn pays it once; the aborted boot's spawn is the
			// doomed spawner's cost, not theirs.
			var spawn time.Duration
			cold := 0
			for _, r := range reports {
				if r.Cold {
					cold++
				}
				spawn += r.Breakdown.Spawn
			}
			if cold != 1 {
				t.Errorf("cold waiter reports = %d, want exactly 1 (one respawns, the rest queue on it)", cold)
			}
			if spawn != spawnCost {
				t.Errorf("waiters' summed Spawn = %v, want exactly %v (one quantum)", spawn, spawnCost)
			}
		})
	}
}
