package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kaas/internal/metrics"
)

// DefaultTenant is the tenant identity assumed when a request carries no
// tenant. Peers that predate tenants cannot send the header field, and mapping them all to one deterministic key keeps
// mixed-version clusters from splitting queues and metrics between ""
// and "default".
const DefaultTenant = "default"

// NormalizeTenant maps the empty tenant identity to DefaultTenant.
func NormalizeTenant(t string) string {
	if t == "" {
		return DefaultTenant
	}
	return t
}

// defaultStickinessBound is the consecutive-bypass budget used when a
// tenant knob is set without an explicit StickinessBound.
const defaultStickinessBound = 4

// tenantState is admission's per-tenant state (guarded by fairQueue.mu
// except for the lazily built metrics).
type tenantState struct {
	name   string
	weight float64
	// inFlight counts admitted invocations of this tenant; queued counts
	// invocations waiting in the tenant's flows. Both are written only by
	// addInFlightLocked and addQueuedLocked, which set the exported gauges
	// from them at the same site.
	inFlight int
	queued   int
	// met is created lazily on first use, for the same reason as
	// entry.met (see entry.metrics).
	reg     *metrics.Registry
	metOnce sync.Once
	met     *tenantMetrics
}

// metrics returns the tenant's cached metric instances, creating them on
// first use.
func (t *tenantState) metrics() *tenantMetrics {
	t.metOnce.Do(func() { t.met = newTenantMetrics(t.reg, t.name) })
	return t.met
}

// fairWaiter is one invocation queued in a flow, waiting for the
// dispatcher to grant it an in-flight slot.
type fairWaiter struct {
	fl            *flow
	start, finish float64       // virtual start/finish tags
	enqueuedAt    time.Time     // modeled enqueue time
	waited        time.Duration // modeled queue wait, set at grant
	grant         chan struct{} // closed on grant or flush
	granted       bool          // guarded by fairQueue.mu
	err           error         // set before grant closes on a flush
}

// flow is the FIFO lane of one (tenant, kernel) pair. Requests within a
// flow dispatch in arrival order; across flows the dispatcher follows
// virtual finish tags.
type flow struct {
	tenant *tenantState
	entry  *entry
	// lastFinish is the finish tag of the flow's most recent request; the
	// next request starts no earlier (per-flow FIFO in virtual time).
	lastFinish float64
	queue      []*fairWaiter
}

// flowKey identifies a flow by its two owners; both live as long as the
// server, so the pointers are stable keys.
type flowKey struct {
	tenant *tenantState
	entry  *entry
}

// removeLocked withdraws a still-queued waiter, reporting whether it was
// found (false means it was already granted or flushed).
func (fl *flow) removeLocked(w *fairWaiter) bool {
	for i, x := range fl.queue {
		if x == w {
			fl.queue = append(fl.queue[:i], fl.queue[i+1:]...)
			return true
		}
	}
	return false
}

// fairQueue is the admission stage: every invocation passes admit, which
// sheds it, grants it an in-flight slot at once, or parks it in its
// (tenant, kernel) flow for the dispatcher. It owns the tenants, the
// flows, the in-flight and queued books (server, kernel and tenant
// level), the kernels' wall-time averages and the drain and close
// states, all guarded by mu. It may take a runner pool's lock (for the
// stickiness check, the arrival predictor and the wait estimate), never
// the other way round.
//
// Virtual time: each request is tagged start = max(V, flow.lastFinish)
// and finish = start + cost/weight, where V is the system virtual time,
// cost is the kernel's observed mean wall time (1.0 before any history),
// and weight is the tenant's configured share. The dispatcher grants the
// queued head with the smallest finish tag whenever an in-flight slot
// frees, advancing V to the granted request's start tag — so a tenant's
// long-run throughput share converges to weight/Σweights of the
// contended capacity, and an idle tenant accumulates no credit. With one
// flow and nothing queued this is FCFS.
//
// Stickiness: a flow whose kernel already holds a warm runner with free
// capacity may be granted ahead of the strict minimum-finish flow —
// dispatching where the warm state lives avoids churning the runners the
// cold-start subsystem exists to protect. Each such bypass increments
// stickyStreak; once it reaches the configured StickinessBound the next
// grant is forced to follow strict virtual-finish order, so fairness
// debt eventually overrides locality.
type fairQueue struct {
	*env
	mu   sync.Mutex
	idle *sync.Cond // broadcast when inFlight reaches 0 and on close
	// closed and draining are written under mu; Invoke, Register, the
	// reaper and the pre-warm boot read them without it.
	closed, draining atomic.Bool
	// waits records that a tenant knob is configured: only then does a
	// request that finds the server-wide cap full have a flow worth
	// waiting in; otherwise it is shed.
	waits        bool
	tenants      map[string]*tenantState
	inFlight     int // admitted invocations server-wide
	vtime        float64
	flows        map[flowKey]*flow
	order        []*flow // deterministic scan order (creation order)
	queued       int     // waiters across all flows
	stickyStreak int
}

func newFairQueue(v *env) *fairQueue {
	f := &fairQueue{env: v, waits: v.cfg.tenantKnobSet(),
		tenants: make(map[string]*tenantState), flows: make(map[flowKey]*flow)}
	f.idle = sync.NewCond(&f.mu)
	return f
}

// tenantLocked returns (creating on first use) the state for a tenant.
func (f *fairQueue) tenantLocked(name string) *tenantState {
	t, ok := f.tenants[name]
	if !ok {
		w := f.cfg.TenantWeights[name]
		if w <= 0 {
			w = 1
		}
		t = &tenantState{name: name, weight: w, reg: f.reg}
		f.tenants[name] = t
	}
	return t
}

// flowLocked returns (creating on first use) the flow for a tenant and
// kernel.
func (f *fairQueue) flowLocked(t *tenantState, e *entry) *flow {
	key := flowKey{t, e}
	fl, ok := f.flows[key]
	if !ok {
		fl = &flow{tenant: t, entry: e}
		f.flows[key] = fl
		f.order = append(f.order, fl)
	}
	return fl
}

// costLocked estimates one request's service cost for finish-tag math:
// the kernel's observed mean wall time in seconds, or 1.0 before any
// history exists (the unit is irrelevant as long as it is consistent).
func costLocked(e *entry) float64 {
	if e.ewmaWall > 0 {
		return e.ewmaWall / float64(time.Second)
	}
	return 1.0
}

// admit is the one admission decision for an invocation of e by tenant.
// Besides the tenant's state it returns a shed-reason label and the
// typed rejection, or nothing when the invocation was granted its
// in-flight slot on arrival, or the waiter it must await when it was
// parked in its flow.
func (f *fairQueue) admit(ctx context.Context, e *entry, tenant string) (*tenantState, *fairWaiter, string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed.Load() {
		return nil, nil, "", ErrServerClosed
	}
	t := f.tenantLocked(tenant)
	if f.draining.Load() {
		return t, nil, "draining", ErrDraining
	}
	cfg := &f.cfg
	full := cfg.MaxInFlightTotal > 0 && f.inFlight >= cfg.MaxInFlightTotal
	if full && !f.waits {
		return t, nil, "in_flight_cap", fmt.Errorf("%w: %d invocations in flight (cap %d)",
			ErrOverloaded, f.inFlight, cfg.MaxInFlightTotal)
	}
	// The kernel-level bound holds whoever the tenants are: fair queueing
	// shares capacity between them, it does not grow the backlog one
	// kernel may accumulate.
	if cfg.MaxQueuePerKernel > 0 {
		healthy := e.healthyCapacity()
		if n := e.inFlight.Load(); n >= int64(healthy+cfg.MaxQueuePerKernel) {
			return t, nil, "queue_full", fmt.Errorf("%w: kernel %q has %d in flight (capacity %d + queue bound %d)",
				ErrOverloaded, e.name, n, healthy, cfg.MaxQueuePerKernel)
		}
	}
	// Deadline-aware shedding: if the caller cannot possibly get an
	// answer within its deadline, reject now instead of burning capacity
	// on work whose result nobody will read. Only applies when some
	// admission knob is set — the estimate is heuristic and must not
	// affect servers running with unbounded admission.
	if f.waits || cfg.MaxInFlightTotal > 0 || cfg.MaxQueuePerKernel > 0 {
		if dl, ok := ctx.Deadline(); ok {
			if est := f.estimateWaitLocked(e); est > 0 && time.Until(dl) < est {
				return t, nil, "deadline", fmt.Errorf("%w: expected wait %v exceeds remaining deadline %v",
					ErrOverloaded, est.Round(time.Millisecond),
					time.Until(dl).Round(time.Millisecond))
			}
		}
	}
	// Per-tenant bounds: with a queue bound, overflow beyond it sheds;
	// without one, the in-flight cap itself sheds (nothing would bound
	// the backlog otherwise). Both are charged to the offending tenant.
	capT, bound := cfg.MaxInFlightPerTenant, cfg.MaxQueuePerTenant
	capped := capT > 0 && t.inFlight >= capT
	if capped && bound == 0 {
		return t, nil, "tenant_in_flight_cap", fmt.Errorf("%w: tenant %q has %d invocations in flight (cap %d)",
			ErrOverloaded, t.name, t.inFlight, capT)
	}
	if bound > 0 && t.queued >= bound {
		return t, nil, "tenant_queue_full", fmt.Errorf("%w: tenant %q has %d invocations queued (bound %d)",
			ErrOverloaded, t.name, t.queued, bound)
	}

	fl := f.flowLocked(t, e)
	start := f.vtime
	if fl.lastFinish > start {
		start = fl.lastFinish
	}
	finish := start + costLocked(e)/t.weight
	fl.lastFinish = finish
	if !full && !capped && f.queued == 0 {
		// Nothing is queued and both caps have room, so the dispatcher
		// would pick this request next: grant it here, exactly as
		// dispatchLocked would, without building a waiter for it.
		f.vtime = start
		f.stickyStreak = 0
		f.grantLocked(fl)
		return t, nil, "", nil
	}
	w := &fairWaiter{fl: fl, start: start, finish: finish,
		enqueuedAt: f.clock.Now(), grant: make(chan struct{})}
	fl.queue = append(fl.queue, w)
	f.addQueuedLocked(t, 1)
	f.dispatchLocked()
	return t, w, "", nil
}

// addInFlightLocked is the one writer of the three in-flight counts; it
// sets the exported gauges from them on the spot.
func (f *fairQueue) addInFlightLocked(e *entry, t *tenantState, delta int) {
	f.inFlight += delta
	t.inFlight += delta
	e.metrics().inFlight.Set(e.inFlight.Add(int64(delta)))
	t.metrics().inFlight.Set(int64(t.inFlight))
}

// grantLocked takes one in-flight slot for an invocation of fl, which is
// also the arrival the pre-warm predictor learns from (when there is
// one to feed).
func (f *fairQueue) grantLocked(fl *flow) {
	f.addInFlightLocked(fl.entry, fl.tenant, 1)
	if f.cfg.KeepAlive.PreWarmLead > 0 {
		fl.entry.observeArrival()
	}
}

// complete returns a finished invocation's in-flight slot and hands it to
// the dispatcher, first folding its wall time (0 when it failed: no
// history) into the kernel's moving averages.
func (f *fairQueue) complete(e *entry, t *tenantState, cold bool, wall time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if wall > 0 {
		observeWallTimeLocked(e, cold, wall)
	}
	f.addInFlightLocked(e, t, -1)
	f.dispatchLocked()
	if f.inFlight == 0 {
		f.idle.Broadcast() // wake Drain waiters
	}
}

// addQueuedLocked is the one writer of the queued counts.
func (f *fairQueue) addQueuedLocked(t *tenantState, delta int) {
	f.queued += delta
	t.queued += delta
	t.metrics().queued.Set(int64(t.queued))
}

// dispatchLocked grants queued requests while in-flight capacity is
// free, choosing flows by (sticky-bounded) virtual finish order.
func (f *fairQueue) dispatchLocked() {
	for f.queued > 0 {
		if f.closed.Load() || f.draining.Load() {
			return
		}
		if f.cfg.MaxInFlightTotal > 0 && f.inFlight >= f.cfg.MaxInFlightTotal {
			return
		}
		fl := f.pickLocked()
		if fl == nil {
			return
		}
		w := fl.queue[0]
		fl.queue = fl.queue[1:]
		f.addQueuedLocked(fl.tenant, -1)
		if w.start > f.vtime {
			f.vtime = w.start
		}
		w.granted = true
		w.waited = f.clock.Now().Sub(w.enqueuedAt)
		f.grantLocked(fl)
		close(w.grant)
	}
}

// pickLocked selects the next flow to dispatch from: the non-empty flow
// with the smallest head finish tag whose tenant is under its in-flight
// cap — unless a warm-runner flow exists and the stickiness budget
// allows bypassing strict order in its favor. Ties break by flow
// creation order, keeping dispatch deterministic under the modeled
// clock.
func (f *fairQueue) pickLocked() *flow {
	var strict, sticky *flow
	capT := f.cfg.MaxInFlightPerTenant
	for _, fl := range f.order {
		if len(fl.queue) == 0 {
			continue
		}
		if capT > 0 && fl.tenant.inFlight >= capT {
			continue
		}
		if strict == nil || fl.queue[0].finish < strict.queue[0].finish {
			strict = fl
		}
		if (sticky == nil || fl.queue[0].finish < sticky.queue[0].finish) && fl.entry.warmFree() {
			sticky = fl
		}
	}
	if strict == nil {
		return nil
	}
	if bound := f.cfg.StickinessBound; bound > 0 && sticky != nil && sticky != strict {
		if f.stickyStreak < bound {
			f.stickyStreak++
			return sticky
		}
	}
	f.stickyStreak = 0
	return strict
}

// flushLocked rejects every queued waiter with err. Drain and Close call
// it so waiters — which are not yet in flight and would otherwise never
// be granted — unblock promptly. A non-empty reason charges each flush
// as a shed, matching what a fresh arrival gets for the same error:
// "draining" for ErrDraining, nothing for ErrServerClosed.
func (f *fairQueue) flushLocked(reason string, err error) {
	for _, fl := range f.order {
		for _, w := range fl.queue {
			f.addQueuedLocked(fl.tenant, -1)
			w.err = err
			if reason != "" {
				fl.entry.metrics().shed(reason)
				fl.tenant.metrics().shed(reason)
			}
			close(w.grant)
		}
		fl.queue = nil
	}
}

// await blocks until the waiter is granted, flushed, or its context
// ends. A nil error means the invocation was admitted and its in-flight
// accounting is live; any error means it was not. A deadline that
// expires while queued is shed as "deadline", charged to the tenant; a
// cancelled caller (e.g. a dropped connection) is only withdrawn.
func (f *fairQueue) await(ctx context.Context, w *fairWaiter) (reason string, err error) {
	select {
	case <-w.grant:
		return "", w.err
	case <-ctx.Done():
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if w.granted {
		// The grant raced the expiry: the slot is held, so proceed as
		// admitted and let the serving path surface the context error.
		return "", nil
	}
	if !w.fl.removeLocked(w) {
		// Already flushed by drain/close; its typed error stands.
		return "", w.err
	}
	f.addQueuedLocked(w.fl.tenant, -1)
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return "deadline", ctx.Err()
	}
	return "", ctx.Err()
}

// drain stops admission: arrivals from now on get ErrDraining, and every
// queued waiter is rejected at once, since once draining it would never
// be granted. It returns the invocations in flight, and false when the
// queue was closed already.
func (f *fairQueue) drain() (int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed.Load() {
		return 0, false
	}
	f.draining.Store(true)
	f.flushLocked("draining", ErrDraining)
	return f.inFlight, true
}

// waitIdle blocks until nothing is in flight or the queue is closed.
func (f *fairQueue) waitIdle() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for f.inFlight > 0 && !f.closed.Load() {
		f.idle.Wait()
	}
}

// close ends admission for good: arrivals and queued waiters get
// ErrServerClosed. It reports false when the queue was closed already.
func (f *fairQueue) close() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed.Load() {
		return false
	}
	f.closed.Store(true)
	f.flushLocked("", ErrServerClosed)
	f.idle.Broadcast() // wake any Drain waiter
	return true
}

// estimateWaitLocked predicts (in wall time) how long a new invocation of
// e will take to complete, from the kernel's observed moving averages: a
// cold start when no runner exists yet, plus queueing behind the
// invocations already in flight. Returns 0 when there is no history to
// estimate from (admission then defers to the queue bounds alone).
func (f *fairQueue) estimateWaitLocked(e *entry) time.Duration {
	capacity := e.healthyCapacity()
	if capacity <= 0 {
		return 0
	}
	var est float64
	if e.runnerCount() == 0 {
		est += e.ewmaColdWall
	}
	if e.ewmaWall > 0 {
		// Number of completion "waves" ahead of this request, including
		// its own service time.
		waves := float64(e.inFlight.Load())/float64(capacity) + 1
		est += waves * e.ewmaWall
	}
	return time.Duration(est)
}

// ewmaAlpha weights the most recent observation in the moving averages
// (wall time for admission, idle gaps for the pre-warm predictor).
const ewmaAlpha = 0.5

// ewma folds v into the moving average avg (0 = no history yet).
func ewma(avg, v float64) float64 {
	if avg == 0 {
		return v
	}
	return ewmaAlpha*v + (1-ewmaAlpha)*avg
}

// observeWallTimeLocked folds one completed invocation's wall-clock
// duration into the kernel's moving averages.
func observeWallTimeLocked(e *entry, cold bool, d time.Duration) {
	e.ewmaWall = ewma(e.ewmaWall, float64(d))
	if cold {
		e.ewmaColdWall = ewma(e.ewmaColdWall, float64(d))
	}
}
