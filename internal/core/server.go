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
	// (tenant, kernel) flow instead of being shed (see admit.go).
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

// Logger returns the server's structured logger (never nil; a discarding
// logger when none was configured).
func (s *Server) Logger() *slog.Logger { return s.cfg.Logger }

// logsInfo reports whether an Info record would be kept. The cold path
// asks it first, so a discarded record does not box its arguments.
func (s *Server) logsInfo() bool {
	return s.cfg.Logger.Enabled(context.Background(), slog.LevelInfo)
}

// Metrics returns the registry the server feeds.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

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

// discardHandler is a slog.Handler that drops every record, used when no
// logger is configured.
type discardHandler struct{}

var _ slog.Handler = discardHandler{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }
