package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"kaas/internal/accel"
	"kaas/internal/artifact"
	"kaas/internal/breaker"
	"kaas/internal/kernels"
	"kaas/internal/metrics"
	"kaas/internal/shm"
	"kaas/internal/vclock"
)

// Errors returned by the server.
var (
	// ErrUnknownKernel indicates an invocation of an unregistered kernel.
	ErrUnknownKernel = errors.New("core: unknown kernel")
	// ErrAlreadyRegistered indicates a duplicate registration.
	ErrAlreadyRegistered = errors.New("core: kernel already registered")
	// ErrServerClosed indicates the server has been shut down.
	ErrServerClosed = errors.New("core: server closed")
	// ErrNoDevice indicates the host has no device of the kernel's kind.
	ErrNoDevice = errors.New("core: no device of required kind")
	// ErrOverloaded indicates admission control shed the invocation: the
	// server-wide in-flight cap or the kernel's wait-queue bound was hit,
	// or the caller's remaining deadline cannot cover the expected wait.
	// The request was rejected before consuming capacity and is safe to
	// retry after backoff.
	ErrOverloaded = errors.New("core: overloaded")
	// ErrDraining indicates the server is gracefully shutting down and no
	// longer admits new invocations (in-flight ones still complete).
	ErrDraining = errors.New("core: server draining")
	// ErrUnavailable indicates no device of the kernel's kind can
	// currently be used: every candidate is excluded by an open circuit
	// breaker. Unlike a device failure mid-invocation this is not
	// failover-retried — the breakers already encode that retrying now
	// would fail.
	ErrUnavailable = errors.New("core: no device available")
)

// errColdStartAborted signals that the runner this invocation queued on
// had its cold start abandoned because the spawning invocation's context
// was cancelled; the waiter itself is still live and retries on a fresh
// runner.
var errColdStartAborted = errors.New("core: cold start aborted by another invocation")

// PlacementPolicy selects the device for a new task runner.
type PlacementPolicy int

// Placement policies.
const (
	// PlaceLeastLoaded picks the device of the right kind hosting the
	// fewest runners — the paper's autoscaler behaviour ("start an
	// additional task runner on a new GPU").
	PlaceLeastLoaded PlacementPolicy = iota + 1
	// PlaceRoundRobin cycles through devices per kernel.
	PlaceRoundRobin
	// PlaceFirstFit always picks the first device (the numba default
	// behaviour the paper observes in the baseline).
	PlaceFirstFit
)

// String returns the policy name.
func (p PlacementPolicy) String() string {
	switch p {
	case PlaceLeastLoaded:
		return "least-loaded"
	case PlaceRoundRobin:
		return "round-robin"
	case PlaceFirstFit:
		return "first-fit"
	default:
		return fmt.Sprintf("placement(%d)", int(p))
	}
}

// KeepAlive is the scale-to-zero policy: how long idle runners keep
// their device slots, how often the reaper sweeps, and whether a
// predictive pre-warm pool re-boots runners ahead of forecast demand.
type KeepAlive struct {
	// Idle releases a runner's device slot after this much idle modeled
	// time (0 = retain forever).
	Idle time.Duration
	// SweepEvery is the reaper cadence in modeled time (default Idle/2).
	SweepEvery time.Duration
	// PreWarmLead enables predictive pre-warming when positive: after a
	// kernel scales to zero, a runner is booted this much modeled time
	// before the arrival-rate estimator's predicted next demand, so the
	// first real invocation of the new busy period lands warm.
	PreWarmLead time.Duration
}

// Config configures a Server.
type Config struct {
	// Clock is the time source (required).
	Clock vclock.Clock
	// Host supplies the accelerator devices (required).
	Host *accel.Host
	// MaxInFlightPerRunner is the in-flight threshold above which the
	// autoscaler starts another runner. Default 4 (the paper's limit).
	MaxInFlightPerRunner int
	// MaxRunnersPerDevice caps runners placed on one device. Default 1.
	MaxRunnersPerDevice int
	// Placement selects where new runners go. Default PlaceLeastLoaded.
	Placement PlacementPolicy
	// RunnerSpawnCost is the modeled cost of starting a runner process.
	// Default 30 ms.
	RunnerSpawnCost time.Duration
	// RoutingOverhead is the modeled per-invocation cost of request
	// routing and serialization inside the host. Default 2 ms.
	RoutingOverhead time.Duration
	// KeepAlive tunes scale-to-zero and predictive pre-warming.
	KeepAlive KeepAlive
	// Artifacts is the content-addressed compiled-kernel cache consulted
	// on every cold start: a miss pays the kernel's modeled JIT compile
	// cost and stores the artifact, a hit skips compilation entirely
	// ("cached-cold"). Nil disables compile-cost modeling, preserving the
	// pre-cache cold-start timing exactly.
	Artifacts *artifact.Cache
	// MaxInFlightTotal caps invocations admitted server-wide; beyond it
	// requests are shed with ErrOverloaded. 0 disables the cap.
	MaxInFlightTotal int
	// MaxQueuePerKernel bounds how many invocations may be in flight per
	// kernel beyond its healthy capacity (eligible devices × runner cap ×
	// in-flight cap); the excess is shed with ErrOverloaded instead of
	// queueing unboundedly. 0 disables the bound.
	MaxQueuePerKernel int
	// BreakerThreshold is the number of consecutive device-failure-class
	// errors that opens a device's circuit breaker, excluding it from
	// placement until a half-open probe succeeds. 0 means the default
	// (3); negative disables breakers entirely.
	BreakerThreshold int
	// BreakerOpenTimeout is how long (modeled time) an open breaker waits
	// before admitting a half-open probe. Default 5s.
	BreakerOpenTimeout time.Duration
	// DisableCompute stops runners from performing the kernel's real
	// host computation (they still charge the modeled device cost).
	// Timing-shape experiments set it so wall-time of host arithmetic
	// does not leak into the scaled modeled timeline; functional use
	// leaves it false.
	DisableCompute bool
	// Logger receives structured lifecycle events (registrations, cold
	// starts, evictions, failovers). Nil disables logging.
	Logger *slog.Logger
	// Metrics is the registry the server feeds per-kernel and per-device
	// counters, gauges, and latency histograms. Nil creates a private
	// registry, readable through Server.Metrics.
	Metrics *metrics.Registry
	// TenantWeights assigns relative fair-share weights to tenants for
	// weighted fair dispatch; tenants not listed (and the "default"
	// tenant legacy peers map to) get weight 1. Setting any tenant knob
	// lets a request that finds MaxInFlightTotal full wait in its
	// (tenant, kernel) flow instead of being shed (see fairness.go).
	TenantWeights map[string]float64
	// MaxInFlightPerTenant caps invocations one tenant may have admitted
	// concurrently; excess requests queue in the tenant's flows (or shed
	// when no queue bound is configured). 0 disables the cap.
	MaxInFlightPerTenant int
	// MaxQueuePerTenant bounds how many invocations one tenant may have
	// queued awaiting fair dispatch; the excess is shed with
	// ErrOverloaded charged to that tenant. 0 leaves the queue unbounded.
	MaxQueuePerTenant int
	// StickinessBound caps how many consecutive dispatches may bypass
	// strict virtual-finish order in favor of a flow with warm runners.
	// 0 means the default (4) when a tenant knob is set; negative
	// disables stickiness.
	StickinessBound int
	// BatchWindow enables server-side micro-batching: invocations of the
	// same kernel targeting the same device that arrive within this
	// modeled-time window are coalesced into one device dispatch, paying
	// the launch overhead once for the whole batch. 0 disables batching.
	BatchWindow time.Duration
	// BatchMax caps how many invocations one batch may carry; a full
	// batch dispatches immediately without waiting out the window.
	// Default 8 when batching is enabled.
	BatchMax int
}

// tenantKnobSet reports whether any tenant knob is configured, which is
// what gives a request somewhere to wait when the server-wide cap is full
// (Stats.FairQueueing).
func (c Config) tenantKnobSet() bool {
	return len(c.TenantWeights) > 0 || c.MaxInFlightPerTenant > 0 ||
		c.MaxQueuePerTenant > 0 || c.StickinessBound > 0
}

// Server is the KaaS control plane for one host.
type Server struct {
	cfg      Config
	clock    vclock.Clock
	reg      *metrics.Registry
	devMet   map[string]*deviceMetrics // immutable after New
	invSeq   atomic.Uint64
	breakers *breaker.Set // nil when breakers are disabled
	batcher  *batcher     // nil when micro-batching is disabled
	dpMet    *dataPlaneMetrics
	// computeOff mirrors Config.DisableCompute so SetComputeResults can
	// flip it while invocations read it without the lock.
	computeOff atomic.Bool

	// arena is the tensor arena pool published by the TCP layer (via
	// WithArenaPool) so Stats and WriteMetrics can report lease
	// accounting; nil when the out-of-band data plane is off.
	arena atomic.Pointer[shm.ArenaPool]

	// hookMu guards breakerHooks; hooks run on the breaker transition
	// path without Server.mu held.
	hookMu       sync.Mutex
	breakerHooks []func(device string, from, to breaker.State)

	// baseCtx bounds background work (pre-warm boots); cancel fires on
	// Close so speculative cold starts never outlive the server.
	baseCtx   context.Context
	cancel    context.CancelFunc
	prewarmWG sync.WaitGroup

	mu        sync.Mutex
	cond      *sync.Cond // broadcast when inFlight reaches 0 (and on Close)
	entries   map[string]*entry
	tenants   map[string]*tenantState
	fair      *fairQueue // the admission stage; sole writer of the in-flight books
	libInit   map[accel.Kind]bool
	runnersOn map[string]int // device ID -> runner count
	runnerSeq int
	inFlight  int // admitted invocations server-wide (written by fair)
	draining  bool
	closed    bool
	reapTimer vclock.Timer
}

// entry is the per-kernel state.
type entry struct {
	name   string
	kernel kernels.Kernel
	// met is created lazily on first use (see Server.kernelMet):
	// registration sits on the modeled-time critical path, and building
	// the ~two dozen metric series for a kernel is wall-clock work that
	// would inflate the scaled clock.
	metOnce    sync.Once
	met        *kernelMetrics
	runners    []*runner
	rrNext     int
	lastRunner int
	// runnersOn counts this kernel's runners per device; the per-device
	// runner cap is per kernel, so kernels place independently (device
	// slots still bound total contexts).
	runnersOn map[string]int
	// inFlight counts admitted invocations of this kernel (guarded by
	// Server.mu, written by the fairQueue); admission control bounds it.
	inFlight int
	// ewmaWall and ewmaColdWall track exponentially weighted moving
	// averages of wall-clock invocation time (warm path and cold path,
	// in nanoseconds), feeding the deadline-aware admission estimate.
	// Wall time is used because client deadlines are wall-clock.
	ewmaWall     float64
	ewmaColdWall float64
	// Arrival-rate estimator state behind the predictive pre-warm pool
	// (guarded by Server.mu, all in modeled time). ewmaGap averages the
	// inter-arrival gaps of a busy period; ewmaIdleGap averages only the
	// gaps that exceeded the keepalive window — the "overnight" silences
	// whose end pre-warming tries to beat. lastArrival anchors the next
	// prediction, prewarmedAt stops a reaped speculative runner from
	// being re-booted until real demand returns, and prewarm is the
	// pending boot timer (nil when none).
	ewmaGap     float64
	ewmaIdleGap float64
	lastArrival time.Time
	prewarmedAt time.Time
	prewarm     vclock.Timer
}

// runner is a task runner holding a warm device context.
type runner struct {
	id     string
	device *accel.Device
	dctx   *accel.Context

	ready    chan struct{} // closed when cold start completes
	startErr error
	// cached records that the cold start hit the artifact cache and
	// skipped compilation. Written before ready closes, read after.
	cached bool

	// guarded by Server.mu
	inflight int
	lastUsed time.Time
	removed  bool
	// draining runners finish in-flight work and are then released
	// (set by ReplaceKernel).
	draining bool
}

// New creates a server.
func New(cfg Config) (*Server, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("core: config needs a clock")
	}
	if cfg.Host == nil {
		return nil, fmt.Errorf("core: config needs a host")
	}
	if cfg.MaxInFlightPerRunner <= 0 {
		cfg.MaxInFlightPerRunner = 4
	}
	if cfg.MaxRunnersPerDevice <= 0 {
		cfg.MaxRunnersPerDevice = 1
	}
	if cfg.Placement == 0 {
		cfg.Placement = PlaceLeastLoaded
	}
	if cfg.RunnerSpawnCost == 0 {
		cfg.RunnerSpawnCost = 30 * time.Millisecond
	}
	if cfg.RoutingOverhead == 0 {
		cfg.RoutingOverhead = 2 * time.Millisecond
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(discardHandler{})
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.KeepAlive.SweepEvery <= 0 {
		cfg.KeepAlive.SweepEvery = cfg.KeepAlive.Idle / 2
	}
	if cfg.KeepAlive.SweepEvery <= 0 {
		cfg.KeepAlive.SweepEvery = cfg.KeepAlive.Idle
	}
	if cfg.tenantKnobSet() && cfg.StickinessBound == 0 {
		cfg.StickinessBound = defaultStickinessBound
	}
	registerHelp(cfg.Metrics)
	s := &Server{
		cfg:       cfg,
		clock:     cfg.Clock,
		reg:       cfg.Metrics,
		devMet:    make(map[string]*deviceMetrics),
		entries:   make(map[string]*entry),
		tenants:   make(map[string]*tenantState),
		fair:      newFairQueue(cfg.tenantKnobSet()),
		libInit:   make(map[accel.Kind]bool),
		runnersOn: make(map[string]int),
	}
	s.computeOff.Store(cfg.DisableCompute)
	s.cond = sync.NewCond(&s.mu)
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.dpMet = newDataPlaneMetrics(s.reg)
	if cfg.BatchWindow > 0 {
		if cfg.BatchMax <= 1 {
			cfg.BatchMax = 8
			s.cfg.BatchMax = 8
		}
		s.batcher = newBatcher(cfg.Clock, cfg.BatchWindow, cfg.BatchMax, s.baseCtx, s.reg)
	}
	for _, d := range append(cfg.Host.Devices(), cfg.Host.CPU()) {
		s.devMet[d.ID()] = newDeviceMetrics(s.reg, d.ID())
	}
	if cfg.BreakerThreshold >= 0 {
		s.breakers = breaker.NewSet(breaker.Config{
			Clock:        cfg.Clock,
			Threshold:    cfg.BreakerThreshold,
			OpenTimeout:  cfg.BreakerOpenTimeout,
			OnTransition: s.onBreakerTransition,
		})
	}
	if cfg.KeepAlive.Idle > 0 {
		// Under the lock: the reaper may fire, and reschedule, at once.
		s.mu.Lock()
		s.scheduleReapLocked()
		s.mu.Unlock()
	}
	return s, nil
}

// onBreakerTransition feeds breaker state changes into metrics and the
// log. It runs with the breaker unlocked; it must not take Server.mu
// (breakers are consulted under it).
func (s *Server) onBreakerTransition(dev string, from, to breaker.State) {
	if dm := s.devMet[dev]; dm != nil {
		dm.breakerState.Set(int64(to))
		if c := dm.breakerTransitions[to]; c != nil {
			c.Inc()
		}
	}
	s.cfg.Logger.Warn("breaker transition",
		"device", dev, "from", from.String(), "to", to.String())
	s.hookMu.Lock()
	hooks := s.breakerHooks // append-only: a snapshot is safe to iterate
	s.hookMu.Unlock()
	for _, fn := range hooks {
		fn(dev, from, to)
	}
}

// OnBreakerTransition registers fn to observe every circuit-breaker
// state change. Hooks run synchronously on the transition path with no
// Server locks held, so they may call back into the server but must be
// quick. The TCP layer uses it to revoke arena leases when a device
// breaker opens.
func (s *Server) OnBreakerTransition(fn func(device string, from, to breaker.State)) {
	s.hookMu.Lock()
	s.breakerHooks = append(s.breakerHooks, fn)
	s.hookMu.Unlock()
}

// setArena publishes the tensor arena pool backing the out-of-band data
// plane so Stats and WriteMetrics can report its accounting.
func (s *Server) setArena(p *shm.ArenaPool) { s.arena.Store(p) }

// deviceEligibleLocked reports whether placement may consider the device:
// it is not currently failed and its breaker would admit a request.
func (s *Server) deviceEligibleLocked(d *accel.Device) bool {
	if d.Failed() {
		return false
	}
	return s.breakers == nil || s.breakers.Eligible(d.ID())
}

// claimDeviceLocked claims breaker admission for a placement on the
// device (this is what converts an elapsed open timeout into the single
// half-open probe). With breakers disabled it always succeeds.
func (s *Server) claimDeviceLocked(d *accel.Device) bool {
	return s.breakers == nil || s.breakers.Allow(d.ID())
}

// recordDeviceOutcome feeds an invocation's result on a device into its
// breaker: device-failure-class errors count toward opening it, success
// closes it. Other errors (context cancellation, kernel bugs) say nothing
// about device health and are ignored.
func (s *Server) recordDeviceOutcome(dev string, err error) {
	if s.breakers == nil {
		return
	}
	switch {
	case err == nil:
		s.breakers.RecordSuccess(dev)
	case errors.Is(err, accel.ErrDeviceFailed):
		s.breakers.RecordFailure(dev)
	}
}

// Logger returns the server's structured logger (never nil; a discarding
// logger when none was configured).
func (s *Server) Logger() *slog.Logger { return s.cfg.Logger }

// Metrics returns the registry the server feeds.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// SetComputeResults toggles real host computation of kernel results.
func (s *Server) SetComputeResults(on bool) { s.computeOff.Store(!on) }

// Register deploys a kernel on the server. Registration initializes the
// kernel's host framework (numba, TensorFlow, ...) once per device kind —
// this is why a KaaS cold start is cheaper than a fresh baseline process
// (§5.1): the library is already warm when the first runner spawns.
func (s *Server) Register(k kernels.Kernel) error {
	if k == nil {
		return fmt.Errorf("core: nil kernel")
	}
	kind := k.Kind()
	if len(s.cfg.Host.DevicesByKind(kind)) == 0 {
		return fmt.Errorf("%w: %s for kernel %q", ErrNoDevice, kind, k.Name())
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	if _, ok := s.entries[k.Name()]; ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrAlreadyRegistered, k.Name())
	}
	needLibInit := !s.libInit[kind]
	s.libInit[kind] = true
	s.entries[k.Name()] = &entry{
		name:      k.Name(),
		kernel:    k,
		runnersOn: make(map[string]int),
	}
	s.mu.Unlock()

	if needLibInit {
		s.clock.Sleep(s.libraryInitCost(kind))
	}
	s.cfg.Logger.Info("kernel registered", "kernel", k.Name(), "kind", kind.String())
	return nil
}

// libraryInitCost reads the library-init cost from the kind's device
// profile.
func (s *Server) libraryInitCost(kind accel.Kind) time.Duration {
	devs := s.cfg.Host.DevicesByKind(kind)
	if len(devs) == 0 {
		return 0
	}
	return devs[0].Profile().LibraryInit
}

// kernelMet returns the entry's cached metric instances, creating them on
// first use.
func (s *Server) kernelMet(e *entry) *kernelMetrics {
	e.metOnce.Do(func() { e.met = newKernelMetrics(s.reg, e.name) })
	return e.met
}

// Kernels returns the registered kernel names.
func (s *Server) Kernels() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.entries))
	for name := range s.entries {
		names = append(names, name)
	}
	return names
}

// Invoke routes one invocation to a warm or new runner and returns the
// kernel response plus a report of how it was served.
//
// A device failure mid-invocation retires the failed runner and retries
// on whatever healthy capacity remains, at most once per device of the
// kernel's kind; when every retry budget is spent the invocation fails
// with an error wrapping accel.ErrDeviceFailed. The retries' modeled time
// accumulates into the returned report.
//
// A warm invocation takes Server.mu three times: admit, place (the
// runner selection in invokeOnce) and complete.
func (s *Server) Invoke(ctx context.Context, name string, req *kernels.Request) (*kernels.Response, *Report, error) {
	wallStart := time.Now()
	tenant := DefaultTenant
	if req != nil {
		tenant = NormalizeTenant(req.Tenant)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil, ErrServerClosed
	}
	e, ok := s.entries[name]
	if !ok {
		s.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownKernel, name)
	}
	t := s.tenantLocked(tenant)
	kind := e.kernel.Kind()
	w, reason, err := s.fair.admitLocked(s, ctx, e, t)
	s.mu.Unlock()
	if err != nil {
		s.shedObserved(e, t, reason)
		return nil, nil, err
	}
	var queued time.Duration
	if w != nil {
		// Not dispatchable on arrival: wait in the flow for a grant.
		if err := w.await(ctx, s); err != nil {
			return nil, nil, err
		}
		queued = w.waited
	}

	met := s.kernelMet(e)
	tm := s.tenantMet(t)
	met.invocations.Inc()
	tm.admitted.Inc()

	report := &Report{
		InvocationID: fmt.Sprintf("inv-%d", s.invSeq.Add(1)),
		Kernel:       name,
	}
	report.Breakdown.Queue += queued
	// held is the runner claim a successful attempt hands back; wall is
	// the completed invocation's wall time (0 on failure: no history).
	var held *runner
	var wall time.Duration
	defer func() { s.complete(e, t, held, report.Cold, wall) }()

	// One attempt per device of the kind on top of the first, so a
	// flapping device cannot keep an invocation bouncing forever.
	maxAttempts := 1 + len(s.cfg.Host.DevicesByKind(kind))

	var resp *kernels.Response
	for attempt := 1; ; attempt++ {
		report.Attempts = attempt
		resp, held, err = s.invokeOnce(ctx, e, t, req, report)
		if err == nil || ctx.Err() != nil {
			break
		}
		// ErrContextReleased is the same failure seen by a sibling: when a
		// device dies with several invocations in flight on one runner, the
		// first to observe ErrDeviceFailed removes the runner and releases
		// its device context, and the others' in-flight ops then fail with
		// the released-context error. Both retry on remaining capacity; only
		// ErrDeviceFailed is breaker evidence (recordDeviceOutcome).
		failover := errors.Is(err, accel.ErrDeviceFailed) ||
			errors.Is(err, accel.ErrContextReleased)
		if !failover && !errors.Is(err, errColdStartAborted) {
			break
		}
		if attempt >= maxAttempts {
			err = fmt.Errorf("core: failover exhausted after %d attempts for %q: %w",
				attempt, name, err)
			break
		}
		if failover {
			met.failovers.Inc()
			// A failed-over invocation pays (at least part of) a cold
			// start, matching how the evaluation classifies it.
			report.Cold = true
		}
	}
	if err != nil {
		met.errors.Inc()
		return nil, nil, err
	}
	met.observe(report.Cold, report.CachedCold, report.Breakdown)
	tm.latency.Observe(report.Breakdown.Total())
	wall = time.Since(wallStart)
	return resp, report, nil
}

// complete is the last stage of an admitted invocation, one lock section:
// it releases the runner claim a successful attempt still holds, folds the
// wall time into the kernel's moving averages, and returns the in-flight
// slot, which runs the dispatcher.
func (s *Server) complete(e *entry, t *tenantState, r *runner, cold bool, wall time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r != nil {
		s.releaseRunnerLocked(e, r)
	}
	if wall > 0 {
		observeWallTimeLocked(e, cold, wall)
	}
	s.fair.releaseLocked(s, e, t)
}

// ewmaAlpha weights the most recent observation in the wall-time moving
// averages behind deadline-aware admission.
const ewmaAlpha = 0.5

// observeWallTimeLocked folds one completed invocation's wall-clock
// duration into the kernel's moving averages.
func observeWallTimeLocked(e *entry, cold bool, d time.Duration) {
	v := float64(d)
	if e.ewmaWall == 0 {
		e.ewmaWall = v
	} else {
		e.ewmaWall = ewmaAlpha*v + (1-ewmaAlpha)*e.ewmaWall
	}
	if cold {
		if e.ewmaColdWall == 0 {
			e.ewmaColdWall = v
		} else {
			e.ewmaColdWall = ewmaAlpha*v + (1-ewmaAlpha)*e.ewmaColdWall
		}
	}
}

// observeArrivalLocked folds one admitted invocation into the kernel's
// arrival-rate estimator. Gaps shorter than the keepalive window update
// the in-period EWMA; longer gaps are the idle periods whose length the
// pre-warm predictor learns. Real demand also cancels any pending
// speculative boot — the arrival itself will warm the pool.
func (s *Server) observeArrivalLocked(e *entry) {
	now := s.clock.Now()
	if !e.lastArrival.IsZero() {
		gap := float64(now.Sub(e.lastArrival))
		if idle := s.cfg.KeepAlive.Idle; idle > 0 && gap >= float64(idle) {
			if e.ewmaIdleGap == 0 {
				e.ewmaIdleGap = gap
			} else {
				e.ewmaIdleGap = ewmaAlpha*gap + (1-ewmaAlpha)*e.ewmaIdleGap
			}
		} else if gap > 0 {
			if e.ewmaGap == 0 {
				e.ewmaGap = gap
			} else {
				e.ewmaGap = ewmaAlpha*gap + (1-ewmaAlpha)*e.ewmaGap
			}
		}
	}
	e.lastArrival = now
	if e.prewarm != nil {
		e.prewarm.Stop()
		e.prewarm = nil
	}
}

// schedulePreWarmLocked arms a speculative runner boot for a kernel that
// just scaled to zero. The predicted next arrival is the last real
// arrival plus the learned idle-gap EWMA; the boot fires PreWarmLead
// ahead of it so the runner is warm when the busy period resumes. No
// prediction is made until at least one full idle gap has been observed
// (the first night is always paid cold), and a kernel is pre-warmed at
// most once per real arrival so a speculative runner that found no
// demand is not re-booted in a warm/reap loop that would burn the very
// device-seconds scale-to-zero exists to save.
func (s *Server) schedulePreWarmLocked(e *entry) {
	if s.cfg.KeepAlive.PreWarmLead <= 0 || s.draining || s.closed {
		return
	}
	if e.ewmaIdleGap == 0 || !e.prewarmedAt.Before(e.lastArrival) {
		return
	}
	eta := e.lastArrival.Add(time.Duration(e.ewmaIdleGap)).Sub(s.clock.Now()) - s.cfg.KeepAlive.PreWarmLead
	if eta < 0 {
		// The predicted arrival is already past: the estimator has no
		// basis for a boot now being useful, so stay scaled to zero.
		return
	}
	if e.prewarm != nil {
		e.prewarm.Stop()
	}
	e.prewarm = s.clock.AfterFunc(eta, func() {
		// Cold starts sleep modeled time; hand off so the clock's
		// dispatcher is not blocked. The Add is ordered against Close's
		// closed flag under the lock, so a timer that beats its Stop can
		// never race the Close-side Wait at a zero counter.
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		s.prewarmWG.Add(1)
		s.mu.Unlock()
		go s.preWarm(e)
	})
}

// preWarm speculatively boots one runner for a scaled-to-zero kernel.
// The boot follows the normal cold-start path (artifact cache included),
// then releases its claim so the runner sits warm and idle; if demand
// never materializes the regular keepalive reaper retires it.
func (s *Server) preWarm(e *entry) {
	defer s.prewarmWG.Done()
	s.mu.Lock()
	e.prewarm = nil
	if s.closed || s.draining || len(e.runners) > 0 {
		s.mu.Unlock()
		return
	}
	k := e.kernel
	dev := s.placeLocked(e)
	if dev == nil {
		s.mu.Unlock()
		return
	}
	r := s.newRunnerLocked(e, dev)
	e.prewarmedAt = s.clock.Now()
	s.mu.Unlock()

	met := s.kernelMet(e)
	met.preWarms.Inc()
	inv := fmt.Sprintf("prewarm-%d", s.invSeq.Add(1))
	s.cfg.Logger.Info("pre-warming runner", "inv", inv, "kernel", e.name, "runner", r.id)
	var b metrics.Breakdown
	s.coldStart(s.baseCtx, inv, e, k, r, &b)
	if r.startErr != nil {
		s.removeRunner(e, r)
		s.recordDeviceOutcome(r.device.ID(), r.startErr)
		return
	}
	s.releaseRunner(e, r)
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

// invokeOnce performs one placement attempt of an invocation,
// accumulating modeled time into the report. On success the claim on the
// serving runner is still held and returned, for Server.complete to
// release in the same lock section that returns the in-flight slot; every
// failure path has already released (or consumed) it.
func (s *Server) invokeOnce(ctx context.Context, e *entry, t *tenantState, req *kernels.Request, report *Report) (*kernels.Response, *runner, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, nil, ErrServerClosed
	}
	// Dispatch-time capacity recheck: admission compared the kernel's
	// backlog against healthy capacity when the invocation arrived, but a
	// breaker can open (or every device of the kind fail) while it sat
	// queued. Re-reading the capacity here keeps a mid-queue breaker open
	// from piling admitted work onto a kernel with zero eligible devices;
	// the shed is typed and charged like any other admission rejection.
	if s.cfg.MaxQueuePerKernel > 0 && s.healthyCapacityLocked(e) == 0 {
		s.mu.Unlock()
		s.shedObserved(e, t, "capacity_lost")
		return nil, nil, fmt.Errorf("%w: kernel %q lost every eligible %s device after admission",
			ErrOverloaded, e.name, e.kernel.Kind())
	}
	// Snapshot the implementation: ReplaceKernel may swap e.kernel while
	// this invocation is in flight.
	k := e.kernel
	r, spawner := s.selectRunnerLocked(e)
	s.mu.Unlock()
	if r == nil {
		// Every device of the kind is excluded by an open breaker; there
		// is nowhere to even queue this invocation.
		return nil, nil, fmt.Errorf("%w: every %s device's breaker is open for %q",
			ErrUnavailable, k.Kind(), e.name)
	}

	report.Runner = r.id

	// Modeled request routing cost.
	s.clock.Sleep(s.cfg.RoutingOverhead)
	report.Breakdown.Other += s.cfg.RoutingOverhead

	if spawner {
		report.Cold = true
		s.coldStart(ctx, report.InvocationID, e, k, r, &report.Breakdown)
		report.CachedCold = r.cached
	} else {
		// Wait for the runner to finish starting if necessary.
		waitStart := s.clock.Now()
		s.kernelMet(e).queueDepth.Inc()
		select {
		case <-r.ready:
			s.kernelMet(e).queueDepth.Dec()
		case <-ctx.Done():
			s.kernelMet(e).queueDepth.Dec()
			s.releaseRunner(e, r)
			return nil, nil, ctx.Err()
		}
		report.Breakdown.Queue += s.clock.Now().Sub(waitStart)
	}
	if r.startErr != nil {
		err := r.startErr
		s.removeRunner(e, r)
		if spawner {
			// Only the spawner reports the cold-start outcome to the
			// breaker: one failed start is one piece of evidence, no
			// matter how many invocations were queued on the runner.
			s.recordDeviceOutcome(r.device.ID(), err)
		}
		if !spawner && ctx.Err() == nil &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			// The spawner's context expired and took the cold start with
			// it; this waiter is still live and deserves a fresh runner.
			return nil, nil, errColdStartAborted
		}
		return nil, nil, fmt.Errorf("core: runner start: %w", err)
	}

	resp, err := s.serve(ctx, k, r, req, report)
	s.recordDeviceOutcome(r.device.ID(), err)
	if err != nil {
		if errors.Is(err, accel.ErrDeviceFailed) {
			// The runner's device failed: retire the runner (consuming
			// this attempt's claim, never a sibling's); the Invoke loop
			// retries on whatever healthy capacity remains.
			s.cfg.Logger.Warn("device failure, failing over",
				"inv", report.InvocationID, "kernel", report.Kernel,
				"runner", r.id, "device", r.device.ID())
			s.removeRunner(e, r)
		} else {
			s.releaseRunner(e, r)
		}
		return nil, nil, err
	}
	report.Device = r.device.ID()
	return resp, r, nil
}

// selectRunnerLocked picks a runner for a new invocation, creating one if
// the autoscaling policy calls for it. It returns the runner and whether
// the caller is responsible for its cold start.
func (s *Server) selectRunnerLocked(e *entry) (*runner, bool) {
	// Prefer the least-loaded existing runner under the in-flight cap,
	// breaking ties by rotating through the pool so load (and therefore
	// devices) is allocated evenly, as the paper observes for KaaS.
	var best *runner
	n := len(e.runners)
	for i := 0; i < n; i++ {
		r := e.runners[(e.lastRunner+1+i)%n]
		if r.removed || r.draining {
			continue
		}
		if r.inflight < s.cfg.MaxInFlightPerRunner && (best == nil || r.inflight < best.inflight) {
			best = r
		}
	}
	if best != nil {
		best.inflight++
		s.setLastRunnerLocked(e, best)
		return best, false
	}

	// All runners saturated: scale out if a device has capacity.
	if dev := s.placeLocked(e); dev != nil {
		return s.newRunnerLocked(e, dev), true
	}

	// No capacity for new runners: overbook the least-loaded one,
	// rotating through ties so saturated pools still spread load. The
	// in-flight limit is a scaling trigger, not an admission limit
	// (§5.5: the GPU can take more parallel work than the threshold).
	for i := 0; i < n; i++ {
		r := e.runners[(e.lastRunner+1+i)%n]
		if r.removed || r.draining {
			continue
		}
		if best == nil || r.inflight < best.inflight {
			best = r
		}
	}
	if best == nil {
		// No runner exists and no device capacity: create one anyway on
		// the overall least-loaded device so the invocation can queue on
		// the device slot instead of failing. A nil device means every
		// device of the kind is behind an open breaker — the caller
		// surfaces ErrUnavailable.
		dev := s.leastLoadedDeviceLocked(e)
		if dev == nil {
			return nil, false
		}
		return s.newRunnerLocked(e, dev), true
	}
	best.inflight++
	s.setLastRunnerLocked(e, best)
	return best, false
}

// setLastRunnerLocked records the rotation point for tie-breaking.
func (s *Server) setLastRunnerLocked(e *entry, picked *runner) {
	for i, r := range e.runners {
		if r == picked {
			e.lastRunner = i
			return
		}
	}
}

// newRunnerLocked creates a runner on dev with one in-flight invocation —
// the caller becomes its spawner.
func (s *Server) newRunnerLocked(e *entry, dev *accel.Device) *runner {
	s.runnerSeq++
	r := &runner{
		id:       fmt.Sprintf("runner-%d", s.runnerSeq),
		device:   dev,
		ready:    make(chan struct{}),
		inflight: 1,
		lastUsed: s.clock.Now(),
	}
	e.runners = append(e.runners, r)
	s.runnersOn[dev.ID()]++
	e.runnersOn[dev.ID()]++
	// Cold starts are counted at completion (see coldStart), not here:
	// counting at creation double-charged a kernel when an aborted cold
	// start's waiter retried on a fresh runner.
	if dm := s.devMet[dev.ID()]; dm != nil {
		dm.runners.Inc()
	}
	return r
}

// placeLocked returns the device for a new runner, or nil if every device
// of the kind is at its runner cap.
func (s *Server) placeLocked(e *entry) *accel.Device {
	devs := s.cfg.Host.DevicesByKind(e.kernel.Kind())
	if len(devs) == 0 {
		return nil
	}
	switch s.cfg.Placement {
	case PlaceFirstFit:
		if s.deviceEligibleLocked(devs[0]) &&
			e.runnersOn[devs[0].ID()] < s.cfg.MaxRunnersPerDevice &&
			s.claimDeviceLocked(devs[0]) {
			return devs[0]
		}
		return nil
	case PlaceRoundRobin:
		for i := 0; i < len(devs); i++ {
			d := devs[(e.rrNext+i)%len(devs)]
			if s.deviceEligibleLocked(d) &&
				e.runnersOn[d.ID()] < s.cfg.MaxRunnersPerDevice &&
				s.claimDeviceLocked(d) {
				e.rrNext = (e.rrNext + i + 1) % len(devs)
				return d
			}
		}
		return nil
	default: // PlaceLeastLoaded
		var best *accel.Device
		for _, d := range devs {
			if !s.deviceEligibleLocked(d) || e.runnersOn[d.ID()] >= s.cfg.MaxRunnersPerDevice {
				continue
			}
			if best == nil || e.runnersOn[d.ID()] < e.runnersOn[best.ID()] {
				best = d
			}
		}
		if best != nil && !s.claimDeviceLocked(best) {
			// Lost the half-open probe race; treat as no capacity.
			return nil
		}
		return best
	}
}

// leastLoadedDeviceLocked returns the device of the entry's kind with the
// fewest of this kernel's runners, ignoring the per-device runner cap but
// honoring open circuit breakers (a breaker-excluded device is skipped; a
// merely failed one is still a legal last resort, so the invocation fails
// with a device error rather than queueing — and feeds the breaker). It
// returns nil only when every device is breaker-excluded. The caller
// guarantees at least one device of the kind exists (checked at
// Register).
func (s *Server) leastLoadedDeviceLocked(e *entry) *accel.Device {
	var best *accel.Device
	for _, d := range s.cfg.Host.DevicesByKind(e.kernel.Kind()) {
		if s.breakers != nil && !s.breakers.Eligible(d.ID()) {
			continue
		}
		switch {
		case best == nil:
			best = d
		case best.Failed() && !d.Failed():
			best = d
		case !d.Failed() && e.runnersOn[d.ID()] < e.runnersOn[best.ID()]:
			best = d
		}
	}
	if best != nil && !s.claimDeviceLocked(best) {
		return nil
	}
	return best
}

// coldStart brings a new runner up: spawn the host process, create the
// device context (RuntimeInit), and run kernel setup work. The caller's
// context bounds the whole sequence, so a cancelled client stops paying
// for spawn and never blocks on a saturated device; the abandoned runner
// is surfaced to waiters through startErr. If the target device has no
// free context slot, an idle runner of another kernel is evicted first so
// single-slot devices (FPGAs) can serve multiple registered kernels
// without deadlocking.
func (s *Server) coldStart(ctx context.Context, inv string, e *entry, k kernels.Kernel, r *runner, b *metrics.Breakdown) {
	defer close(r.ready)

	if err := ctx.Err(); err != nil {
		r.startErr = err
		return
	}
	s.clock.Sleep(s.cfg.RunnerSpawnCost)
	b.Spawn += s.cfg.RunnerSpawnCost

	initStart := s.clock.Now()
	dctx, err := s.acquireSlot(ctx, r.device)
	if err != nil {
		r.startErr = fmt.Errorf("acquire %s: %w", r.device.ID(), err)
		return
	}
	b.RuntimeInit += s.clock.Now().Sub(initStart)
	r.dctx = dctx
	s.cfg.Logger.Info("runner started", "inv", inv, "runner", r.id, "device", r.device.ID())

	// JIT compilation against the artifact cache: a hit means some
	// runner (here or on a linked peer host) already compiled this
	// kernel for this device kind, and the boot proceeds straight to
	// setup ("cached-cold"); a miss pays the modeled compile cost and
	// publishes the artifact.
	if c := s.cfg.Artifacts; c != nil {
		compile, size := kernels.CompileProfile(k)
		key := artifact.KeyFor(k.Name(), k.Kind().String(), compile.String())
		met := s.kernelMet(e)
		if c.Lookup(key) != nil {
			r.cached = true
			met.cacheHits.Inc()
		} else {
			met.cacheMisses.Inc()
			s.clock.Sleep(compile)
			b.Compile += compile
			c.Store(&artifact.Artifact{
				Key:         key,
				Kernel:      k.Name(),
				Kind:        k.Kind().String(),
				Size:        size,
				CompileCost: compile,
			})
		}
	}

	// Kernel setup (weight loading, transpilation): a fixed modeled
	// duration independent of the device's compute rate.
	cost, err := k.Cost(&kernels.Request{Params: kernels.Params{}})
	if err == nil && cost.SetupTime > 0 {
		s.clock.Sleep(cost.SetupTime)
		b.Setup += cost.SetupTime
	}

	// The runner is up: this — not runner creation — is when a cold
	// start is charged, so an aborted boot whose waiter respawned is one
	// cold start, not two.
	s.kernelMet(e).coldStarts.Inc()
}

// evictRetrySlice bounds how long a blocked cold start waits on a
// saturated device before re-checking for an evictable idle runner. It
// makes slot acquisition race-free without holding the server lock
// across the blocking wait: two concurrent cold starts on a single-slot
// device may both pass the pressure check and find only one evictable
// runner, but the loser retries its eviction instead of blocking
// forever.
//
// Device occupancy advances in modeled time, so the retry slice is a
// modeled duration converted to the wall-clock timeout dev.Acquire
// needs. The original constant was 2ms of wall time, which at the
// default test scale of 5000 quantized the re-check to 10 modeled
// seconds — a blocked cold start could idle for ~10 modeled seconds
// after the contended slot's holder had already gone idle.
const evictRetrySliceModeled = 25 * time.Millisecond

// evictRetrySliceFloor keeps the wall slice from collapsing to a busy
// spin on highly scaled clocks, and stands in entirely on clocks with no
// wall conversion (Manual returns scale 0).
const evictRetrySliceFloor = 50 * time.Microsecond

// evictRetrySlice converts the modeled retry slice to wall time for the
// server's clock.
func (s *Server) evictRetrySlice() time.Duration {
	if scale := s.clock.Scale(); scale > 0 {
		if d := time.Duration(float64(evictRetrySliceModeled) / scale); d > evictRetrySliceFloor {
			return d
		}
	}
	return evictRetrySliceFloor
}

// acquireSlot obtains a device context for a cold start, evicting idle
// runners under slot pressure and retrying the eviction for as long as
// the caller's context allows.
func (s *Server) acquireSlot(ctx context.Context, dev *accel.Device) (*accel.Context, error) {
	dm := s.devMet[dev.ID()]
	if dm != nil {
		dm.queueDepth.Inc()
		defer dm.queueDepth.Dec()
	}
	for {
		if st := dev.Stats(); st.ActiveContexts >= dev.Profile().Slots {
			s.mu.Lock()
			s.evictIdleRunnerLocked(dev)
			s.mu.Unlock()
		}
		actx, cancel := context.WithTimeout(ctx, s.evictRetrySlice())
		dctx, err := dev.Acquire(actx)
		cancel()
		if err == nil {
			return dctx, nil
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		if errors.Is(err, context.DeadlineExceeded) {
			continue // every slot still held: re-check for an evictable runner
		}
		return nil, err
	}
}

// serve executes one invocation on a started runner.
func (s *Server) serve(ctx context.Context, k kernels.Kernel, r *runner, req *kernels.Request, report *Report) (*kernels.Response, error) {
	if req == nil {
		req = &kernels.Request{}
	}
	if req.Params == nil {
		req.Params = kernels.Params{}
	}
	cost, err := k.Cost(req)
	if err != nil {
		return nil, fmt.Errorf("core: cost model: %w", err)
	}

	if cost.DeviceMemory > 0 {
		if err := r.dctx.Alloc(cost.DeviceMemory); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		defer r.dctx.Free(cost.DeviceMemory)
	}

	copyIn, err := r.dctx.Copy(ctx, cost.BytesIn)
	if err != nil {
		return nil, err
	}
	report.Breakdown.CopyIn += copyIn

	var execTime time.Duration
	if s.batcher != nil {
		// Micro-batching: join the forming batch for this (device, kernel)
		// bucket and share one coalesced launch with whoever else arrives
		// inside the window.
		execTime, err = s.batcher.exec(ctx, batchKey{device: r.device.ID(), kernel: k.Name()}, r.dctx, cost.Work)
	} else {
		execTime, err = r.dctx.Exec(ctx, cost.Work)
	}
	if err != nil {
		return nil, err
	}
	report.Breakdown.Exec += execTime

	var resp *kernels.Response
	if !s.computeOff.Load() {
		resp, err = k.Execute(req)
		if err != nil {
			return nil, fmt.Errorf("core: execute: %w", err)
		}
	} else {
		resp = &kernels.Response{Values: map[string]float64{"computed": 0}}
	}

	copyOut, err := r.dctx.Copy(ctx, cost.BytesOut)
	if err != nil {
		return nil, err
	}
	report.Breakdown.CopyOut += copyOut
	return resp, nil
}

// releaseRunner gives up one claim on a runner outside the completion
// section (failed attempts, pre-warm boots).
func (s *Server) releaseRunner(e *entry, r *runner) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.releaseRunnerLocked(e, r)
}

// releaseRunnerLocked decrements a runner's in-flight count, finishing a
// drain when the runner was replaced mid-flight.
func (s *Server) releaseRunnerLocked(e *entry, r *runner) {
	r.inflight--
	r.lastUsed = s.clock.Now()
	if r.draining && r.inflight == 0 && !r.removed && runnerStarted(r) {
		r.inflight++ // balance the decrement in removeRunnerLocked
		s.removeRunnerLocked(e, r)
	}
}

// evictIdleRunnerLocked releases one started, idle runner on the given
// device (any kernel) to free a context slot. It reports whether a runner
// was evicted.
func (s *Server) evictIdleRunnerLocked(dev *accel.Device) bool {
	for _, e := range s.entries {
		for _, r := range e.runners {
			if r.removed || r.device != dev || r.inflight != 0 {
				continue
			}
			select {
			case <-r.ready:
			default:
				continue // still starting
			}
			r.inflight++ // balance the decrement in removeRunnerLocked
			s.removeRunnerLocked(e, r)
			if dm := s.devMet[dev.ID()]; dm != nil {
				dm.evictions.Inc()
			}
			s.cfg.Logger.Info("runner evicted for slot pressure",
				"runner", r.id, "device", dev.ID())
			return true
		}
	}
	return false
}

// removeRunner deletes a failed runner on behalf of a caller that still
// holds an in-flight claim on it; the claim is consumed either way, so
// several waiters of one failed cold start can all call it and the
// runner's in-flight accounting still ends exactly at zero.
func (s *Server) removeRunner(e *entry, r *runner) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.removed {
		r.inflight--
		return
	}
	s.removeRunnerLocked(e, r)
}

func (s *Server) removeRunnerLocked(e *entry, r *runner) {
	if r.removed {
		return
	}
	r.removed = true
	r.inflight--
	s.runnersOn[r.device.ID()]--
	e.runnersOn[r.device.ID()]--
	if dm := s.devMet[r.device.ID()]; dm != nil {
		dm.runners.Dec()
	}
	for i, x := range e.runners {
		if x == r {
			e.runners = append(e.runners[:i], e.runners[i+1:]...)
			break
		}
	}
	if r.dctx != nil {
		r.dctx.Release()
	}
}

// reap releases runners idle beyond the configured timeout — the
// scale-down half of elasticity (§3.3).
func (s *Server) reap() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	now := s.clock.Now()
	type victim struct {
		e *entry
		r *runner
	}
	var victims []victim
	for _, e := range s.entries {
		for _, r := range e.runners {
			if r.inflight == 0 && !r.removed && now.Sub(r.lastUsed) >= s.cfg.KeepAlive.Idle {
				select {
				case <-r.ready:
					victims = append(victims, victim{e, r})
				default:
					// still starting; skip
				}
			}
		}
	}
	for _, v := range victims {
		// Re-check at removal time. Selection and removal run under one
		// continuous lock hold today, but the claim interlock — a runner
		// picked for reaping in the same tick an invocation claims it
		// must keep its device context — must not depend on that staying
		// true, so the removal re-verifies the runner is still idle.
		if v.r.removed || v.r.inflight != 0 {
			continue
		}
		v.r.inflight++ // balance the decrement in removeRunnerLocked
		s.removeRunnerLocked(v.e, v.r)
		if dm := s.devMet[v.r.device.ID()]; dm != nil {
			dm.reaps.Inc()
		}
		s.cfg.Logger.Info("idle runner reaped",
			"runner", v.r.id, "device", v.r.device.ID())
		if len(v.e.runners) == 0 && v.e.inFlight == 0 {
			// The kernel scaled to zero: hand the next boot to the
			// pre-warm predictor.
			s.schedulePreWarmLocked(v.e)
		}
	}
	s.scheduleReapLocked()
	s.mu.Unlock()
}

// scheduleReapLocked arms the idle-runner reaper timer.
func (s *Server) scheduleReapLocked() {
	s.reapTimer = s.clock.AfterFunc(s.cfg.KeepAlive.SweepEvery, s.reap)
}

// Drain gracefully shuts the server down: new invocations are rejected
// with ErrDraining while in-flight ones run to completion, then the
// server closes. If ctx expires first the server closes anyway (fencing,
// not dropping, whatever is still in flight — see Close) and the context
// error is returned.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	// Queued waiters are not in flight and would never be granted once
	// draining; reject them now so Drain cannot hang on them.
	s.fair.flushLocked(s, "draining", ErrDraining)
	s.cfg.Logger.Info("server draining", "in_flight", s.inFlight)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.mu.Lock()
		for s.inFlight > 0 && !s.closed {
			s.cond.Wait()
		}
		s.mu.Unlock()
	}()

	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.cfg.Logger.Warn("drain deadline expired, closing with work in flight")
	}
	s.Close()
	<-done // Close broadcasts, so the waiter always exits
	return err
}

// Close shuts the server down, releasing all idle runners immediately.
// Runners with invocations still in flight are fenced, not dropped:
// their device contexts stay live until the last invocation finishes
// (releaseRunner then releases them), so a Close racing an invocation
// can never yank a context out from under a serving kernel.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.fair.flushLocked(s, "", ErrServerClosed)
	if s.cancel != nil {
		s.cancel() // abort in-flight pre-warm boots
	}
	if s.reapTimer != nil {
		s.reapTimer.Stop()
		s.reapTimer = nil
	}
	for _, e := range s.entries {
		if e.prewarm != nil {
			e.prewarm.Stop()
			e.prewarm = nil
		}
	}
	for _, e := range s.entries {
		// removeRunnerLocked splices e.runners; iterate a snapshot.
		for _, r := range append([]*runner(nil), e.runners...) {
			if r.removed {
				continue
			}
			if r.inflight > 0 {
				r.draining = true
				continue
			}
			r.inflight++ // balance the decrement in removeRunnerLocked
			s.removeRunnerLocked(e, r)
		}
	}
	s.cond.Broadcast() // wake any Drain waiter
	s.mu.Unlock()
	// Pre-warm boots see the cancelled base context (or the closed flag)
	// and exit promptly; waiting here keeps Close's contract that no
	// background work of this server survives it.
	s.prewarmWG.Wait()
}

// discardHandler is a slog.Handler that drops every record, used when no
// logger is configured.
type discardHandler struct{}

var _ slog.Handler = discardHandler{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }
