package core

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"kaas/internal/accel"
	"kaas/internal/vclock"
)

// testEnv is the shared context of an owner built without a Server.
func testEnv(cfg Config) *env {
	cfg = cfg.withDefaults()
	return &env{cfg: cfg, clock: cfg.Clock, reg: cfg.Metrics}
}

// poolClaim is one claim a state-machine worker holds on a runner;
// spawner marks the claim that owns the runner's cold start.
type poolClaim struct {
	r       *runner
	spawner bool
}

// TestRunnerPoolStateMachine drives one runner pool on a fake device,
// with no Server, through seeded operation sequences from several
// goroutines — claim, ready (a spawner's cold start ends, some of them
// failed), release, fail, reap and evict — and checks the invariant
// table after every step:
//
//   - a claimed runner is never reaped or evicted;
//   - no runner's claim count is negative, or below the claims the
//     workers hold on it;
//   - a removed runner holds no device slot;
//   - a failover leaves its siblings' claims balanced: once every worker
//     has given back every claim, every count is zero.
func TestRunnerPoolStateMachine(t *testing.T) {
	const (
		workers = 4
		steps   = 400
	)
	clock := vclock.NewManual(time.Unix(0, 0))
	dev, err := accel.NewDevice(clock, "gpu0", nullProfile)
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	defer dev.Close()
	e := newEntry(testEnv(Config{Clock: clock, MaxInFlightPerRunner: 2, MaxRunnersPerDevice: 3}),
		namedNull("k"), []*accel.Device{dev})
	// Anything idle is due: reap never waits out a keepalive here.
	due := clock.Now().Add(time.Hour)

	var (
		mu     sync.Mutex
		held   = map[*runner]int{}  // claims the workers hold, per runner
		culled = map[*runner]bool{} // runners reap or evict removed
	)
	// check compares the pool with the workers' claims at one instant.
	check := func(worker, step int) {
		e.mu.Lock()
		defer e.mu.Unlock()
		mu.Lock()
		defer mu.Unlock()
		for r, n := range held {
			if r.inflight < 0 || r.inflight < n {
				t.Errorf("worker %d step %d: runner %s counts %d claims, workers hold %d", worker, step, r.id, r.inflight, n)
			}
			if n > 0 && culled[r] {
				t.Errorf("worker %d step %d: runner %s was reaped or evicted with %d claims held", worker, step, r.id, n)
			}
			if r.removed && runnerStarted(r) && r.dctx != nil &&
				!errors.Is(r.dctx.Alloc(0), accel.ErrContextReleased) {
				t.Errorf("worker %d step %d: removed runner %s still holds its device slot", worker, step, r.id)
			}
		}
	}
	cull := func(rs ...*runner) {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range rs {
			culled[r] = true
		}
	}
	hold := func(r *runner, delta int) {
		mu.Lock()
		defer mu.Unlock()
		held[r] += delta
	}
	// ready ends a cold start as coldStart does: the context (or the
	// error) is written before ready closes.
	ready := func(r *runner, rng *rand.Rand) {
		if rng.Intn(4) == 0 {
			r.startErr = errors.New("boot failed")
		} else {
			r.dctx, r.startErr = dev.AcquireWithin(context.Background(), 10*time.Millisecond)
		}
		close(r.ready)
	}
	// give returns a claim the way the serving path does: a failed start
	// or a failed device fails the runner, anything else releases it.
	give := func(c poolClaim, failIt bool) {
		hold(c.r, -1)
		if failIt || c.r.startErr != nil {
			e.fail(c.r)
		} else {
			e.release(c.r)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1 + worker)))
			var claims []poolClaim
			var booting []*runner // runners whose cold start this worker owns
		run:
			for step := 0; step < steps && !t.Failed(); step++ {
				switch op := rng.Intn(10); {
				case op < 3: // claim
					r, spawner, err := e.claim()
					if err != nil {
						t.Errorf("worker %d step %d: claim: %v", worker, step, err)
						break run // still end the boots others may wait on
					}
					hold(r, 1)
					claims = append(claims, poolClaim{r, spawner})
					if spawner {
						booting = append(booting, r)
					}
				case op < 5 && len(booting) > 0: // ready
					ready(booting[0], rng)
					booting = booting[1:]
				case op < 8 && len(claims) > 0: // release, or fail (a failover)
					i := rng.Intn(len(claims))
					c := claims[i]
					if !runnerStarted(c.r) && c.spawner {
						continue // a spawner gives its claim back only once its boot ends
					}
					if runnerStarted(c.r) {
						give(c, op == 7)
					} else { // a waiter whose caller left
						hold(c.r, -1)
						e.release(c.r)
					}
					claims = append(claims[:i], claims[i+1:]...)
				case op == 8: // reap
					cull(e.reap(due, nil)...)
				case op == 9: // evict
					if r := e.evictIdle(dev); r != nil {
						cull(r)
					}
				}
				check(worker, step)
			}
			for _, r := range booting {
				ready(r, rng)
			}
			for _, c := range claims {
				<-c.r.ready // every worker ends the boots it owns first
				give(c, false)
			}
		}(w)
	}
	wg.Wait()

	e.mu.Lock()
	for r := range held {
		if r.inflight != 0 {
			t.Errorf("runner %s counts %d claims after every claim was given back", r.id, r.inflight)
		}
	}
	e.mu.Unlock()
	e.close()
	if n := e.runnerCount(); n != 0 {
		t.Errorf("closed pool holds %d runners", n)
	}
	if n := dev.SlotsTaken(); n != 0 {
		t.Errorf("device holds %d slots after the pool closed", n)
	}
}
