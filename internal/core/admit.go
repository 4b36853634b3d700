package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
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

// tenantState is the per-tenant slice of server state (guarded by
// Server.mu except for the lazily built metrics).
type tenantState struct {
	name   string
	weight float64
	// inFlight counts admitted invocations of this tenant; queued counts
	// invocations waiting in the tenant's flows. Both are written only by
	// the fairQueue (addInFlightLocked, addQueuedLocked), which sets the
	// exported gauges from them at the same site.
	inFlight int
	queued   int
	// met is created lazily on first use, for the same reason as
	// entry.met (see Server.kernelMet).
	metOnce sync.Once
	met     *tenantMetrics
}

// tenantLocked returns (creating on first use) the state for a tenant.
func (s *Server) tenantLocked(name string) *tenantState {
	t, ok := s.tenants[name]
	if !ok {
		w := s.cfg.TenantWeights[name]
		if w <= 0 {
			w = 1
		}
		t = &tenantState{name: name, weight: w}
		s.tenants[name] = t
	}
	return t
}

// tenantMet returns the tenant's cached metric instances, creating them
// on first use.
func (s *Server) tenantMet(t *tenantState) *tenantMetrics {
	t.metOnce.Do(func() { t.met = newTenantMetrics(s.reg, t.name) })
	return t.met
}

// shedObserved records one rejection against both the kernel's and the
// tenant's shed counters and logs it.
func (s *Server) shedObserved(e *entry, t *tenantState, reason string) {
	s.kernelMet(e).shed(reason)
	s.tenantMet(t).shed(reason)
	s.cfg.Logger.Warn("invocation shed",
		"kernel", e.name, "tenant", t.name, "reason", reason)
}

// fairWaiter is one invocation queued in a flow, waiting for the
// dispatcher to grant it an in-flight slot.
type fairWaiter struct {
	fl            *flow
	start, finish float64       // virtual start/finish tags
	enqueuedAt    time.Time     // modeled enqueue time
	waited        time.Duration // modeled queue wait, set at grant
	grant         chan struct{} // closed on grant or flush
	granted       bool          // guarded by Server.mu
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

// fairQueue is the admission stage: every invocation passes admitLocked,
// which sheds it, grants it an in-flight slot at once, or parks it in its
// (tenant, kernel) flow for the dispatcher. It is also the one writer of
// the in-flight and queued books (server, kernel and tenant level). All
// state is guarded by Server.mu.
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
	// waits records that a tenant knob is configured: only then does a
	// request that finds the server-wide cap full have a flow worth
	// waiting in; otherwise it is shed.
	waits        bool
	vtime        float64
	flows        map[flowKey]*flow
	order        []*flow // deterministic scan order (creation order)
	queued       int     // waiters across all flows
	stickyStreak int
}

func newFairQueue(waits bool) *fairQueue {
	return &fairQueue{waits: waits, flows: make(map[flowKey]*flow)}
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

// admitLocked is the one admission decision. It returns a shed-reason
// label plus the typed rejection, or (nil, "", nil) when the invocation
// was granted its in-flight slot on arrival, or the waiter it must await
// when it was parked in its flow.
func (f *fairQueue) admitLocked(s *Server, ctx context.Context, e *entry, t *tenantState) (*fairWaiter, string, error) {
	if s.draining {
		return nil, "draining", ErrDraining
	}
	cfg := &s.cfg
	full := cfg.MaxInFlightTotal > 0 && s.inFlight >= cfg.MaxInFlightTotal
	if full && !f.waits {
		return nil, "in_flight_cap", fmt.Errorf("%w: %d invocations in flight (cap %d)",
			ErrOverloaded, s.inFlight, cfg.MaxInFlightTotal)
	}
	// The kernel-level bound holds whoever the tenants are: fair queueing
	// shares capacity between them, it does not grow the backlog one
	// kernel may accumulate.
	if cfg.MaxQueuePerKernel > 0 {
		healthy := s.healthyCapacityLocked(e)
		if e.inFlight >= healthy+cfg.MaxQueuePerKernel {
			return nil, "queue_full", fmt.Errorf("%w: kernel %q has %d in flight (capacity %d + queue bound %d)",
				ErrOverloaded, e.name, e.inFlight, healthy, cfg.MaxQueuePerKernel)
		}
	}
	// Deadline-aware shedding: if the caller cannot possibly get an
	// answer within its deadline, reject now instead of burning capacity
	// on work whose result nobody will read. Only applies when some
	// admission knob is set — the estimate is heuristic and must not
	// affect servers running with unbounded admission.
	if f.waits || cfg.MaxInFlightTotal > 0 || cfg.MaxQueuePerKernel > 0 {
		if dl, ok := ctx.Deadline(); ok {
			if est := s.estimateWaitLocked(e); est > 0 && time.Until(dl) < est {
				return nil, "deadline", fmt.Errorf("%w: expected wait %v exceeds remaining deadline %v",
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
		return nil, "tenant_in_flight_cap", fmt.Errorf("%w: tenant %q has %d invocations in flight (cap %d)",
			ErrOverloaded, t.name, t.inFlight, capT)
	}
	if bound > 0 && t.queued >= bound {
		return nil, "tenant_queue_full", fmt.Errorf("%w: tenant %q has %d invocations queued (bound %d)",
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
		f.grantLocked(s, fl)
		return nil, "", nil
	}
	w := &fairWaiter{fl: fl, start: start, finish: finish,
		enqueuedAt: s.clock.Now(), grant: make(chan struct{})}
	fl.queue = append(fl.queue, w)
	f.addQueuedLocked(s, t, 1)
	f.dispatchLocked(s)
	return w, "", nil
}

// addInFlightLocked is the one writer of the three in-flight counts; it
// sets the exported gauges from them on the spot.
func (f *fairQueue) addInFlightLocked(s *Server, e *entry, t *tenantState, delta int) {
	s.inFlight += delta
	e.inFlight += delta
	t.inFlight += delta
	s.kernelMet(e).inFlight.Set(int64(e.inFlight))
	s.tenantMet(t).inFlight.Set(int64(t.inFlight))
}

// grantLocked takes one in-flight slot for an invocation of fl, which is
// also the arrival the pre-warm estimator learns from.
func (f *fairQueue) grantLocked(s *Server, fl *flow) {
	f.addInFlightLocked(s, fl.entry, fl.tenant, 1)
	s.observeArrivalLocked(fl.entry)
}

// releaseLocked returns a finished invocation's in-flight slot and hands
// it to the dispatcher.
func (f *fairQueue) releaseLocked(s *Server, e *entry, t *tenantState) {
	f.addInFlightLocked(s, e, t, -1)
	f.dispatchLocked(s)
	if s.inFlight == 0 {
		s.cond.Broadcast() // wake Drain waiters
	}
}

// addQueuedLocked is the one writer of the queued counts.
func (f *fairQueue) addQueuedLocked(s *Server, t *tenantState, delta int) {
	f.queued += delta
	t.queued += delta
	s.tenantMet(t).queued.Set(int64(t.queued))
}

// dispatchLocked grants queued requests while in-flight capacity is
// free, choosing flows by (sticky-bounded) virtual finish order.
func (f *fairQueue) dispatchLocked(s *Server) {
	for f.queued > 0 {
		if s.closed || s.draining {
			return
		}
		if s.cfg.MaxInFlightTotal > 0 && s.inFlight >= s.cfg.MaxInFlightTotal {
			return
		}
		fl := f.pickLocked(s)
		if fl == nil {
			return
		}
		w := fl.queue[0]
		fl.queue = fl.queue[1:]
		f.addQueuedLocked(s, fl.tenant, -1)
		if w.start > f.vtime {
			f.vtime = w.start
		}
		w.granted = true
		w.waited = s.clock.Now().Sub(w.enqueuedAt)
		f.grantLocked(s, fl)
		close(w.grant)
	}
}

// pickLocked selects the next flow to dispatch from: the non-empty flow
// with the smallest head finish tag whose tenant is under its in-flight
// cap — unless a warm-runner flow exists and the stickiness budget
// allows bypassing strict order in its favor. Ties break by flow
// creation order, keeping dispatch deterministic under the modeled
// clock.
func (f *fairQueue) pickLocked(s *Server) *flow {
	var strict, sticky *flow
	capT := s.cfg.MaxInFlightPerTenant
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
		if s.warmFreeRunnerLocked(fl.entry) &&
			(sticky == nil || fl.queue[0].finish < sticky.queue[0].finish) {
			sticky = fl
		}
	}
	if strict == nil {
		return nil
	}
	if bound := s.cfg.StickinessBound; bound > 0 && sticky != nil && sticky != strict {
		if f.stickyStreak < bound {
			f.stickyStreak++
			return sticky
		}
	}
	f.stickyStreak = 0
	return strict
}

// warmFreeRunnerLocked reports whether the kernel holds a started,
// healthy runner with in-flight headroom — the warm state sticky
// dispatch steers toward.
func (s *Server) warmFreeRunnerLocked(e *entry) bool {
	for _, r := range e.runners {
		if r.removed || r.draining || r.inflight >= s.cfg.MaxInFlightPerRunner {
			continue
		}
		select {
		case <-r.ready:
			if r.startErr == nil {
				return true
			}
		default:
		}
	}
	return false
}

// flushLocked rejects every queued waiter with err. Drain and Close call
// it so waiters — which are not yet in flight and would otherwise never
// be granted — unblock promptly. A non-empty reason charges each flush
// as a shed, matching what a fresh arrival gets for the same error:
// "draining" for ErrDraining, nothing for ErrServerClosed.
func (f *fairQueue) flushLocked(s *Server, reason string, err error) {
	for _, fl := range f.order {
		for _, w := range fl.queue {
			f.addQueuedLocked(s, fl.tenant, -1)
			w.err = err
			if reason != "" {
				s.kernelMet(fl.entry).shed(reason)
				s.tenantMet(fl.tenant).shed(reason)
			}
			close(w.grant)
		}
		fl.queue = nil
	}
}

// await blocks until the waiter is granted, flushed, or its context
// ends. A nil return means the invocation was admitted and its in-flight
// accounting is live; any error means it was not. A deadline that
// expires while queued is shed as "deadline", charged to the tenant; a
// cancelled caller (e.g. a dropped connection) is only withdrawn.
func (w *fairWaiter) await(ctx context.Context, s *Server) error {
	select {
	case <-w.grant:
		return w.err
	case <-ctx.Done():
	}
	s.mu.Lock()
	if w.granted {
		// The grant raced the expiry: the slot is held, so proceed as
		// admitted and let the serving path surface the context error.
		s.mu.Unlock()
		return nil
	}
	if !w.fl.removeLocked(w) {
		// Already flushed by drain/close; its typed error stands.
		s.mu.Unlock()
		return w.err
	}
	s.fair.addQueuedLocked(s, w.fl.tenant, -1)
	s.mu.Unlock()
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		s.shedObserved(w.fl.entry, w.fl.tenant, "deadline")
	}
	return ctx.Err()
}

// healthyCapacityLocked estimates how many invocations of e the placement
// layer can serve concurrently: eligible devices of the kind times the
// per-device runner cap times the per-runner in-flight threshold.
func (s *Server) healthyCapacityLocked(e *entry) int {
	eligible := 0
	for _, d := range s.cfg.Host.DevicesByKind(e.kernel.Kind()) {
		if s.deviceEligibleLocked(d) {
			eligible++
		}
	}
	return eligible * s.cfg.MaxRunnersPerDevice * s.cfg.MaxInFlightPerRunner
}

// estimateWaitLocked predicts (in wall time) how long a new invocation of
// e will take to complete, from the kernel's observed moving averages: a
// cold start when no runner exists yet, plus queueing behind the
// invocations already in flight. Returns 0 when there is no history to
// estimate from (admission then defers to the queue bounds alone).
func (s *Server) estimateWaitLocked(e *entry) time.Duration {
	capacity := s.healthyCapacityLocked(e)
	if capacity <= 0 {
		return 0
	}
	var est float64
	if len(e.runners) == 0 {
		est += e.ewmaColdWall
	}
	if e.ewmaWall > 0 {
		// Number of completion "waves" ahead of this request, including
		// its own service time.
		waves := float64(e.inFlight)/float64(capacity) + 1
		est += waves * e.ewmaWall
	}
	return time.Duration(est)
}
