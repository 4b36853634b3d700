package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"maps"
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

// env is the read-only context every owner of server state shares: the
// configuration with its defaults applied, the clock, the registry, the
// breakers and the per-device metrics, plus the host-wide runner
// sequence. New builds one; a runner pool or the admission stage can be
// built on one alone.
type env struct {
	cfg       Config
	clock     vclock.Clock
	reg       *metrics.Registry
	devMet    map[string]*deviceMetrics
	breakers  *breaker.Set // nil when breakers are disabled
	runnerSeq atomic.Int64
}

// Server is the KaaS control plane for one host. Its state has three
// owners, each behind its own lock (DESIGN.md §7, Owners and lock
// order): the kernel table, the admission stage (adm) and one runner
// pool per kernel (entry).
type Server struct {
	*env
	invSeq  atomic.Uint64
	batcher *batcher // nil when micro-batching is disabled
	dpMet   *dataPlaneMetrics

	// arena is the tensor arena pool published by the TCP layer (via
	// WithArenaPool) so Stats and WriteMetrics can report lease
	// accounting; nil when the out-of-band data plane is off.
	arena atomic.Pointer[shm.ArenaPool]

	// breakerHooks is republished whole by each OnBreakerTransition.
	breakerHooks atomic.Pointer[[]func(device string, from, to breaker.State)]

	// baseCtx bounds background work (pre-warm boots); cancel fires on
	// Close so speculative cold starts never outlive the server.
	baseCtx   context.Context
	cancel    context.CancelFunc
	prewarmWG sync.WaitGroup

	adm       *fairQueue
	reapTimer atomic.Pointer[vclock.Timer] // the pending sweep (see scheduleReap)

	// The kernel table: regMu is taken only by Register and Close;
	// table is the published map, replaced whole by Register, so a
	// call looks its kernel up without a lock.
	regMu   sync.Mutex
	table   atomic.Pointer[map[string]*entry]
	libInit map[accel.Kind]bool // guarded by regMu
}

// withDefaults fills every unset knob with its default.
func (c Config) withDefaults() Config {
	if c.MaxInFlightPerRunner <= 0 {
		c.MaxInFlightPerRunner = 4
	}
	if c.MaxRunnersPerDevice <= 0 {
		c.MaxRunnersPerDevice = 1
	}
	if c.Placement == 0 {
		c.Placement = PlaceLeastLoaded
	}
	if c.RunnerSpawnCost == 0 {
		c.RunnerSpawnCost = 30 * time.Millisecond
	}
	if c.RoutingOverhead == 0 {
		c.RoutingOverhead = 2 * time.Millisecond
	}
	if c.Logger == nil {
		c.Logger = slog.New(discardHandler{})
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	if c.KeepAlive.SweepEvery <= 0 {
		c.KeepAlive.SweepEvery = c.KeepAlive.Idle / 2
	}
	if c.KeepAlive.SweepEvery <= 0 {
		c.KeepAlive.SweepEvery = c.KeepAlive.Idle
	}
	if c.tenantKnobSet() && c.StickinessBound == 0 {
		c.StickinessBound = defaultStickinessBound
	}
	if c.BatchWindow > 0 && c.BatchMax <= 1 {
		c.BatchMax = 8
	}
	return c
}

// New creates a server.
func New(cfg Config) (*Server, error) {
	if cfg.Clock == nil {
		return nil, fmt.Errorf("core: config needs a clock")
	}
	if cfg.Host == nil {
		return nil, fmt.Errorf("core: config needs a host")
	}
	cfg = cfg.withDefaults()
	registerHelp(cfg.Metrics)
	s := &Server{
		env:     &env{cfg: cfg, clock: cfg.Clock, reg: cfg.Metrics, devMet: make(map[string]*deviceMetrics)},
		libInit: make(map[accel.Kind]bool),
	}
	s.table.Store(&map[string]*entry{})
	s.baseCtx, s.cancel = context.WithCancel(context.Background())
	s.dpMet = newDataPlaneMetrics(s.reg)
	if cfg.BatchWindow > 0 {
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
	s.adm = newFairQueue(s.env)
	if cfg.KeepAlive.Idle > 0 {
		s.scheduleReap()
	}
	return s, nil
}

// onBreakerTransition feeds breaker state changes into metrics and the
// log. It runs with the breaker unlocked and takes no lock of its own.
func (s *Server) onBreakerTransition(dev string, from, to breaker.State) {
	if dm := s.devMet[dev]; dm != nil {
		dm.breakerState.Set(int64(to))
		if c := dm.breakerTransitions[to]; c != nil {
			c.Inc()
		}
	}
	s.cfg.Logger.Warn("breaker transition",
		"device", dev, "from", from.String(), "to", to.String())
	if hooks := s.breakerHooks.Load(); hooks != nil {
		for _, fn := range *hooks {
			fn(dev, from, to)
		}
	}
}

// OnBreakerTransition registers fn to observe every circuit-breaker
// state change. Hooks run synchronously on the transition path with no
// Server locks held, so they may call back into the server but must be
// quick. The TCP layer uses it to revoke arena leases when a device
// breaker opens.
func (s *Server) OnBreakerTransition(fn func(device string, from, to breaker.State)) {
	for {
		old := s.breakerHooks.Load()
		var hooks []func(device string, from, to breaker.State)
		if old != nil {
			hooks = append(hooks, *old...)
		}
		hooks = append(hooks, fn)
		if s.breakerHooks.CompareAndSwap(old, &hooks) {
			return
		}
	}
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
	devs := s.cfg.Host.DevicesByKind(kind)
	if len(devs) == 0 {
		return fmt.Errorf("%w: %s for kernel %q", ErrNoDevice, kind, k.Name())
	}

	s.regMu.Lock()
	if s.adm.closed.Load() {
		s.regMu.Unlock()
		return ErrServerClosed
	}
	old := *s.table.Load()
	if _, ok := old[k.Name()]; ok {
		s.regMu.Unlock()
		return fmt.Errorf("%w: %q", ErrAlreadyRegistered, k.Name())
	}
	table := maps.Clone(old)
	table[k.Name()] = newEntry(s.env, k, devs)
	s.table.Store(&table)
	needLibInit := !s.libInit[kind]
	s.libInit[kind] = true
	s.regMu.Unlock()

	if needLibInit {
		s.clock.Sleep(devs[0].Profile().LibraryInit)
	}
	s.cfg.Logger.Info("kernel registered", "kernel", k.Name(), "kind", kind.String())
	return nil
}

// Kernels returns the registered kernel names.
func (s *Server) Kernels() []string {
	table := *s.table.Load()
	names := make([]string, 0, len(table))
	for name := range table {
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
