package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"kaas/internal/accel"
	"kaas/internal/kernels"
	"kaas/internal/vclock"
)

// fairTestHarness builds the admission stage on its own — no Server,
// one runner pool per kernel on one test GPU — pins it at saturation and
// steps the dispatcher one grant at a time, so the WFQ properties below
// are checked against the exact grant order instead of a racy
// approximation of it. All mutation happens under the queue's lock, the
// same discipline the production paths follow.
type fairTestHarness struct {
	f       *fairQueue
	entries map[string]*entry
	waiters []*fairWaiter
	granted map[*fairWaiter]bool
}

func newFairHarness(t *testing.T, cfg Config, kernelNames ...string) *fairTestHarness {
	t.Helper()
	cfg.Clock = vclock.Scaled(5000)
	v := testEnv(cfg)
	dev, err := accel.NewDevice(cfg.Clock, "gpu0", testGPUProfile())
	if err != nil {
		t.Fatalf("NewDevice: %v", err)
	}
	t.Cleanup(dev.Close)
	h := &fairTestHarness{f: newFairQueue(v), entries: make(map[string]*entry), granted: make(map[*fairWaiter]bool)}
	for _, name := range kernelNames {
		k := &fakeKernel{name: name, kind: accel.GPU, cost: stdCost()}
		h.entries[name] = newEntry(v, k, []*accel.Device{dev})
	}
	return h
}

// saturate pins the queue's global in-flight count at its cap so
// enqueued waiters queue instead of dispatching immediately.
func (h *fairTestHarness) saturate() {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	h.f.inFlight = h.f.cfg.MaxInFlightTotal
}

// enqueue queues one waiter for (tenant, kernel), failing the test on a
// shed.
func (h *fairTestHarness) enqueue(t *testing.T, tenant, kernel string) {
	t.Helper()
	_, w, reason, err := h.f.admit(context.Background(), h.entries[kernel], tenant)
	if err != nil || w == nil {
		t.Fatalf("admit(%s/%s) = waiter %v, shed %q: %v; want a queued waiter", tenant, kernel, w, reason, err)
	}
	h.waiters = append(h.waiters, w)
}

// step frees one in-flight slot, runs the dispatcher, and returns the
// tenant granted by that step ("" when nothing was dispatchable).
func (h *fairTestHarness) step() string {
	h.f.mu.Lock()
	defer h.f.mu.Unlock()
	h.f.inFlight--
	h.f.dispatchLocked()
	for _, w := range h.waiters {
		if w.granted && !h.granted[w] {
			h.granted[w] = true
			return w.fl.tenant.name
		}
	}
	h.f.inFlight++ // nothing granted: restore the pinned saturation
	return ""
}

// registerFake registers a fake GPU kernel under the given name.
func registerFake(t *testing.T, s *Server, name string) {
	t.Helper()
	if err := s.Register(&fakeKernel{name: name, kind: accel.GPU, cost: stdCost()}); err != nil {
		t.Fatalf("Register(%s): %v", name, err)
	}
}

// TestFairQueueWeightedShares drains a saturated two-tenant backlog and
// requires the grant split to converge to the configured 3:1 weights.
func TestFairQueueWeightedShares(t *testing.T) {
	h := newFairHarness(t, Config{
		TenantWeights:    map[string]float64{"heavy": 3, "light": 1},
		MaxInFlightTotal: 4,
	}, "k")
	h.saturate()
	for i := 0; i < 200; i++ {
		h.enqueue(t, "heavy", "k")
		h.enqueue(t, "light", "k")
	}
	counts := map[string]int{}
	for g := 0; g < 200; g++ {
		counts[h.step()]++
	}
	share := float64(counts["heavy"]) / 200
	if share < 0.70 || share > 0.80 {
		t.Errorf("heavy tenant took %.0f%% of grants (%v), want ~75%% for 3:1 weights", 100*share, counts)
	}
}

// TestFairQueueNoStarvation floods one flow at 10x weight and requires
// the thin flow's waiters to still be granted near their virtual-time
// slots — a backlogged heavy tenant must not starve a light one.
func TestFairQueueNoStarvation(t *testing.T) {
	h := newFairHarness(t, Config{
		TenantWeights:    map[string]float64{"heavy": 10, "light": 1},
		MaxInFlightTotal: 4,
	}, "k")
	h.saturate()
	for i := 0; i < 200; i++ {
		h.enqueue(t, "heavy", "k")
	}
	for i := 0; i < 5; i++ {
		h.enqueue(t, "light", "k")
	}
	var lightPositions []int
	for g := 0; g < 120; g++ {
		if h.step() == "light" {
			lightPositions = append(lightPositions, g+1)
		}
	}
	if len(lightPositions) != 5 {
		t.Fatalf("light tenant got %d of 5 grants in 120 steps: %v", len(lightPositions), lightPositions)
	}
	// The i-th light waiter's finish tag is i+1 virtual units; the heavy
	// flow packs ~10 grants per unit, so position ~11(i+1) is on-schedule
	// and anything far past it means starvation crept in.
	for i, pos := range lightPositions {
		if limit := 11*(i+1) + 3; pos > limit {
			t.Errorf("light waiter %d granted at position %d, want <= %d", i, pos, limit)
		}
	}
}

// TestFairQueueStickinessBounded gives one flow a warm runner and a
// worse virtual-time position, and requires sticky dispatch to favor it
// for at most StickinessBound consecutive grants before strict finish
// order takes back over.
func TestFairQueueStickinessBounded(t *testing.T) {
	h := newFairHarness(t, Config{
		// The cold tenant's 10x weight makes the cold flow the strict
		// choice at every step, so every warm grant is a sticky bypass.
		TenantWeights:    map[string]float64{"cold-t": 10, "warm-t": 1},
		MaxInFlightTotal: 4,
		StickinessBound:  3,
	}, "warm", "cold")
	// A booted, idle runner gives the "warm" kernel's flow the
	// warm-free-runner state sticky dispatch steers toward.
	warm := h.entries["warm"]
	r, spawner, err := warm.claim()
	if err != nil || !spawner {
		t.Fatalf("claim = spawner %v, %v; want a new runner", spawner, err)
	}
	close(r.ready)
	warm.release(r)
	// Pin the warm kernel's observed cost high so its finish tags always
	// trail the cold flow's: every warm grant is then provably a sticky
	// bypass, never a strict-order win.
	h.f.mu.Lock()
	warm.ewmaWall = float64(10 * time.Second)
	h.f.mu.Unlock()
	h.saturate()
	for i := 0; i < 20; i++ {
		h.enqueue(t, "cold-t", "cold")
		h.enqueue(t, "warm-t", "warm")
	}
	var order []string
	for g := 0; g < 12; g++ {
		order = append(order, h.step())
	}
	// Bound 3 yields a period-4 pattern: three sticky bypasses toward the
	// warm flow, then one forced strict grant to the cold flow.
	want := []string{
		"warm-t", "warm-t", "warm-t", "cold-t",
		"warm-t", "warm-t", "warm-t", "cold-t",
		"warm-t", "warm-t", "warm-t", "cold-t",
	}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("grant order %v, want %v", order, want)
	}
	streak, maxStreak := 0, 0
	for _, g := range order {
		if g == "warm-t" {
			streak++
			if streak > maxStreak {
				maxStreak = streak
			}
		} else {
			streak = 0
		}
	}
	if maxStreak > 3 {
		t.Errorf("sticky streak reached %d consecutive grants, bound is 3", maxStreak)
	}
}

// TestFairQueueDeterministicOrder runs the same saturated enqueue
// schedule on two fresh servers and requires identical grant orders —
// the dispatcher must be a pure function of the schedule under the
// modeled clock, with no map-iteration or timing nondeterminism.
func TestFairQueueDeterministicOrder(t *testing.T) {
	run := func() []string {
		h := newFairHarness(t, Config{
			TenantWeights:    map[string]float64{"a": 2, "b": 1, "c": 1},
			MaxInFlightTotal: 2,
		}, "k")
		h.saturate()
		for i := 0; i < 30; i++ {
			h.enqueue(t, "a", "k")
			h.enqueue(t, "b", "k")
			h.enqueue(t, "c", "k")
		}
		var order []string
		for g := 0; g < 60; g++ {
			order = append(order, h.step())
		}
		return order
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("same schedule produced different grant orders:\n%v\n%v", a, b)
	}
}

// TestFairQueueConcurrentInvoke exercises the full Invoke path with two
// tenants racing through the fair queue (run under -race). Every
// request must complete, and the per-tenant accounting must balance.
func TestFairQueueConcurrentInvoke(t *testing.T) {
	s, _, _ := newTestServer(t, 2, func(c *Config) {
		c.TenantWeights = map[string]float64{"a": 3, "b": 1}
		c.MaxInFlightTotal = 4
		c.MaxQueuePerTenant = 128
	})
	registerFake(t, s, "k")
	const perTenant = 24
	var wg sync.WaitGroup
	errs := make(chan error, 2*perTenant)
	for _, tenant := range []string{"a", "b"} {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				req := &kernels.Request{Tenant: tenant}
				if _, _, err := s.Invoke(context.Background(), "k", req); err != nil {
					errs <- fmt.Errorf("tenant %s: %w", tenant, err)
				}
			}(tenant)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := s.Stats()
	if !st.FairQueueing {
		t.Error("Stats.FairQueueing = false with tenant weights configured")
	}
	for _, tenant := range []string{"a", "b"} {
		ts, ok := st.PerTenant[tenant]
		if !ok {
			t.Fatalf("Stats.PerTenant missing tenant %q (have %v)", tenant, st.PerTenant)
		}
		if ts.Admitted != perTenant {
			t.Errorf("tenant %s admitted %d, want %d", tenant, ts.Admitted, perTenant)
		}
		if ts.InFlight != 0 || ts.Queued != 0 {
			t.Errorf("tenant %s left residue: inFlight=%d queued=%d", tenant, ts.InFlight, ts.Queued)
		}
	}
	if w := st.PerTenant["a"].Weight; w != 3 {
		t.Errorf("tenant a weight %v, want 3", w)
	}
}
