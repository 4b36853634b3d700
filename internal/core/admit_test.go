package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"kaas/internal/accel"
	"kaas/internal/kernels"
)

// admitFixture arranges admission state on one server with one kernel
// "k" by driving the admission stage's own methods, so each row of
// TestAdmissionDecision probes an exact state instead of a racy
// approximation of it.
type admitFixture struct {
	t    *testing.T
	s    *Server
	host *accel.Host
}

func newAdmitFixture(t *testing.T, mutate func(*Config)) *admitFixture {
	s, host, _ := newTestServer(t, 1, mutate)
	registerFake(t, s, "k")
	return &admitFixture{t: t, s: s, host: host}
}

func (a *admitFixture) entry() *entry { return (*a.s.table.Load())["k"] }

// tenant returns admission's state for a tenant, creating it.
func (a *admitFixture) tenant(name string) *tenantState {
	a.s.adm.mu.Lock()
	defer a.s.adm.mu.Unlock()
	return a.s.adm.tenantLocked(name)
}

// occupy takes n in-flight slots for tenant without running anything.
func (a *admitFixture) occupy(tenant string, n int) {
	f := a.s.adm
	f.mu.Lock()
	defer f.mu.Unlock()
	fl := f.flowLocked(f.tenantLocked(tenant), a.entry())
	for i := 0; i < n; i++ {
		f.grantLocked(fl)
	}
}

// vacate returns n slots taken by occupy (or by a parked waiter's grant).
func (a *admitFixture) vacate(tenant string, n int) {
	for i := 0; i < n; i++ {
		a.s.adm.complete(a.entry(), a.tenant(tenant), false, 0)
	}
}

// park queues n waiters for tenant, failing the test if admission sheds
// or grants one instead.
func (a *admitFixture) park(tenant string, n int) []*fairWaiter {
	a.t.Helper()
	var ws []*fairWaiter
	for i := 0; i < n; i++ {
		_, w, reason, err := a.s.adm.admit(context.Background(), a.entry(), tenant)
		if err != nil || w == nil || a.isGranted(w) {
			a.t.Fatalf("park(%s): waiter=%v reason=%q err=%v, want a queued waiter", tenant, w, reason, err)
		}
		ws = append(ws, w)
	}
	return ws
}

func (a *admitFixture) queued(tenant string) int {
	a.s.adm.mu.Lock()
	defer a.s.adm.mu.Unlock()
	return a.s.adm.tenantLocked(tenant).queued
}

func (a *admitFixture) isGranted(w *fairWaiter) bool {
	a.s.adm.mu.Lock()
	defer a.s.adm.mu.Unlock()
	return w.granted
}

// sheds returns the kernel's and the tenant's shed count under reason,
// and their totals across every reason.
func (a *admitFixture) sheds(tenant, reason string) (kernel, ten, kernelAll, tenAll uint64) {
	km, tm := a.entry().metrics(), a.tenant(tenant).metrics()
	if reason != "" {
		kernel, ten = km.sheds[reason].Value(), tm.sheds[reason].Value()
	}
	return kernel, ten, km.shedTotal(), tm.shedTotal()
}

// TestAdmissionDecision is the admission stage's decision table: arrival
// state x configured knobs -> grant | wait | shed(reason). Every row
// checks the typed error, that the shed is counted once under the same
// reason on the kernel and on the tenant (and under no other reason),
// that a rejected request never created a runner, and that the books
// return to zero.
func TestAdmissionDecision(t *testing.T) {
	const probeTenant = "a"
	history := func(a *admitFixture) {
		a.s.adm.mu.Lock()
		a.entry().ewmaWall = float64(10 * time.Second)
		a.s.adm.mu.Unlock()
	}
	timeout := func(d time.Duration) func() (context.Context, context.CancelFunc) {
		return func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), d)
		}
	}
	weighted := func(c *Config) {
		c.TenantWeights = map[string]float64{"a": 2, "b": 1}
		c.MaxInFlightTotal = 1
	}

	cases := []struct {
		name    string
		cfg     func(*Config)
		arrange func(a *admitFixture)
		ctx     func() (context.Context, context.CancelFunc)
		// onQueued, when set, makes the probe a waiter: it must park in
		// its flow, and the hook then decides its fate.
		onQueued   func(a *admitFixture, cancel context.CancelFunc)
		wantErr    error  // nil: admitted and served
		wantReason string // "": nothing counted as shed
		wantSheds  uint64 // under wantReason; 0 means 1
		cleanup    func(a *admitFixture)
	}{
		{
			name: "no knobs: granted",
		},
		{
			name:    "no knobs: the deadline estimate is not consulted",
			arrange: history,
			ctx:     timeout(5 * time.Second),
		},
		{
			name:       "global cap only: shed in_flight_cap at once",
			cfg:        func(c *Config) { c.MaxInFlightTotal = 2 },
			arrange:    func(a *admitFixture) { a.occupy("other", 2) },
			wantErr:    ErrOverloaded,
			wantReason: "in_flight_cap",
			cleanup:    func(a *admitFixture) { a.vacate("other", 2) },
		},
		{
			// One GPU x 1 runner x 4 in flight is the healthy capacity.
			name:       "per-kernel bound: shed queue_full",
			cfg:        func(c *Config) { c.MaxQueuePerKernel = 1 },
			arrange:    func(a *admitFixture) { a.occupy("other", 5) },
			wantErr:    ErrOverloaded,
			wantReason: "queue_full",
			cleanup:    func(a *admitFixture) { a.vacate("other", 5) },
		},
		{
			name:       "hopeless deadline with history: shed deadline",
			cfg:        func(c *Config) { c.MaxInFlightTotal = 8 },
			arrange:    history,
			ctx:        timeout(time.Millisecond),
			wantErr:    ErrOverloaded,
			wantReason: "deadline",
		},
		{
			name:       "tenant cap without queue bound: shed tenant_in_flight_cap",
			cfg:        func(c *Config) { c.MaxInFlightPerTenant = 2 },
			arrange:    func(a *admitFixture) { a.occupy(probeTenant, 2) },
			wantErr:    ErrOverloaded,
			wantReason: "tenant_in_flight_cap",
			cleanup:    func(a *admitFixture) { a.vacate(probeTenant, 2) },
		},
		{
			name: "tenant queue bound: shed tenant_queue_full, other lanes unaffected",
			cfg: func(c *Config) {
				weighted(c)
				c.MaxQueuePerTenant = 4
			},
			arrange: func(a *admitFixture) {
				a.occupy("other", 1)
				a.park(probeTenant, 4)
				a.park("b", 1)
			},
			wantErr:    ErrOverloaded,
			wantReason: "tenant_queue_full",
			cleanup: func(a *admitFixture) {
				a.s.Close() // flushes the parked waiters
				a.vacate("other", 1)
			},
		},
		{
			// The dispatch-time recheck: the queue-bound formula admits when
			// healthy capacity is zero (0 in flight < 0 + bound), so capacity
			// that vanished before placement is shed there, typed.
			name:       "every device lost after admission: shed capacity_lost",
			cfg:        func(c *Config) { c.MaxQueuePerKernel = 4 },
			arrange:    func(a *admitFixture) { a.host.Devices()[0].Fail() },
			wantErr:    ErrOverloaded,
			wantReason: "capacity_lost",
		},
		{
			name:    "weights + global cap: waits for a slot, then served",
			cfg:     weighted,
			arrange: func(a *admitFixture) { a.occupy("other", 1) },
			onQueued: func(a *admitFixture, _ context.CancelFunc) {
				a.vacate("other", 1)
			},
		},
		{
			// No history, so nothing sheds it on arrival: DeadlineExceeded
			// (not ErrOverloaded) shows it expired in its flow.
			name:       "deadline expires while queued: shed deadline",
			cfg:        weighted,
			arrange:    func(a *admitFixture) { a.occupy("other", 1) },
			ctx:        timeout(50 * time.Millisecond),
			wantErr:    context.DeadlineExceeded,
			wantReason: "deadline",
			cleanup:    func(a *admitFixture) { a.vacate("other", 1) },
		},
		{
			name:    "caller cancels while queued: withdrawn, not shed",
			cfg:     weighted,
			arrange: func(a *admitFixture) { a.occupy("other", 1) },
			ctx:     func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) },
			onQueued: func(_ *admitFixture, cancel context.CancelFunc) {
				cancel()
			},
			wantErr: context.Canceled,
			cleanup: func(a *admitFixture) { a.vacate("other", 1) },
		},
		{
			name:    "draining: ErrDraining for the flushed waiter and for arrivals",
			cfg:     weighted,
			arrange: func(a *admitFixture) { a.occupy("other", 1) },
			onQueued: func(a *admitFixture, _ context.CancelFunc) {
				drained := make(chan error, 1)
				go func() { drained <- a.s.Drain(context.Background()) }()
				waitFor(a.t, 2*time.Second, func() bool { return a.s.Stats().Draining }, "server to start draining")
				req := &kernels.Request{Tenant: probeTenant}
				if _, _, err := a.s.Invoke(context.Background(), "k", req); !errors.Is(err, ErrDraining) {
					a.t.Errorf("arrival while draining err = %v, want ErrDraining", err)
				}
				a.vacate("other", 1)
				if err := <-drained; err != nil {
					a.t.Errorf("Drain = %v, want nil", err)
				}
			},
			wantErr:    ErrDraining,
			wantReason: "draining",
			wantSheds:  2,
		},
		{
			name:    "closed: the flushed waiter gets ErrServerClosed and, like an arrival, no shed",
			cfg:     weighted,
			arrange: func(a *admitFixture) { a.occupy("other", 1) },
			onQueued: func(a *admitFixture, _ context.CancelFunc) {
				a.s.Close()
			},
			wantErr: ErrServerClosed,
			cleanup: func(a *admitFixture) { a.vacate("other", 1) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := newAdmitFixture(t, tc.cfg)
			if tc.arrange != nil {
				tc.arrange(a)
			}
			ctx, cancel := context.Background(), context.CancelFunc(func() {})
			if tc.ctx != nil {
				ctx, cancel = tc.ctx()
			}
			defer cancel()

			start := time.Now()
			done := make(chan error, 1)
			go func() {
				_, _, err := a.s.Invoke(ctx, "k", &kernels.Request{Tenant: probeTenant})
				done <- err
			}()
			if tc.onQueued != nil {
				waitFor(t, 2*time.Second, func() bool { return a.queued(probeTenant) == 1 }, "probe to park in its flow")
				select {
				case err := <-done:
					t.Fatalf("probe returned %v while it should be waiting", err)
				default:
				}
				tc.onQueued(a, cancel)
			}
			var err error
			select {
			case err = <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("probe never returned")
			}
			if tc.wantErr == nil && err != nil {
				t.Fatalf("probe err = %v, want it served", err)
			}
			if tc.wantErr != nil && !errors.Is(err, tc.wantErr) {
				t.Fatalf("probe err = %v, want %v", err, tc.wantErr)
			}
			if tc.wantErr != nil && tc.onQueued == nil {
				if elapsed := time.Since(start); elapsed > time.Second {
					t.Errorf("rejection took %v, want immediate", elapsed)
				}
			}

			want := tc.wantSheds
			if tc.wantReason != "" && want == 0 {
				want = 1
			}
			k, ten, kAll, tenAll := a.sheds(probeTenant, tc.wantReason)
			if tc.wantReason != "" && (k != want || ten != want) {
				t.Errorf("shed[%s]: kernel %d, tenant %d, want %d on both", tc.wantReason, k, ten, want)
			}
			if kAll != want || tenAll != want {
				t.Errorf("sheds across all reasons: kernel %d, tenant %d, want %d", kAll, tenAll, want)
			}
			if tc.cleanup != nil {
				tc.cleanup(a)
			}
			if n := a.s.runnerSeq.Load(); tc.wantErr != nil && n != 0 {
				t.Errorf("a rejected request created %d runner(s)", n)
			}
			f := a.s.adm
			f.mu.Lock()
			if n := a.entry().inFlight.Load(); f.inFlight != 0 || n != 0 {
				t.Errorf("in-flight residue: server %d, kernel %d", f.inFlight, n)
			}
			for name, ts := range f.tenants {
				if ts.inFlight != 0 || ts.queued != 0 {
					t.Errorf("tenant %s residue: inFlight=%d queued=%d", name, ts.inFlight, ts.queued)
				}
			}
			f.mu.Unlock()
		})
	}
}

// TestAdmissionWaitersGrantedInFinishTagOrder pins the wait arm's order
// through the real Invoke path: with the server-wide cap full, waiters
// are granted by virtual finish tag (weight 2 halves a tag), ties by flow
// creation order.
func TestAdmissionWaitersGrantedInFinishTagOrder(t *testing.T) {
	a := newAdmitFixture(t, func(c *Config) {
		c.TenantWeights = map[string]float64{"a": 2, "b": 1}
		c.MaxInFlightTotal = 1
	})
	a.occupy("other", 1)
	// b1 arrives first (finish 1.0) through Invoke; a1 (0.5) and a2 (1.0)
	// park behind it.
	done := make(chan error, 1)
	go func() {
		_, _, err := a.s.Invoke(context.Background(), "k", &kernels.Request{Tenant: "b"})
		done <- err
	}()
	waitFor(t, 2*time.Second, func() bool { return a.queued("b") == 1 }, "b1 to park")
	as := a.park("a", 2)

	a.vacate("other", 1) // first slot: a1 has the smallest tag
	if !a.isGranted(as[0]) || a.isGranted(as[1]) {
		t.Fatalf("after one free slot: a1 granted=%v a2 granted=%v, want a1 only", a.isGranted(as[0]), a.isGranted(as[1]))
	}
	select {
	case err := <-done:
		t.Fatalf("b1 returned %v before its turn", err)
	default:
	}
	a.vacate("a", 1) // second slot: b1 ties a2 and its flow is older
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("b1: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("b1 never granted")
	}
	// b1's completion handed its slot to a2.
	if !a.isGranted(as[1]) {
		t.Error("a2 not granted after b1 completed")
	}
	a.vacate("a", 1)
}
