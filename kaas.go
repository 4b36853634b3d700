// Package kaas is a serverless runtime for hardware accelerator kernels —
// a Go implementation of the Kernel-as-a-Service programming model
// (Pfandzelter et al., Middleware '23).
//
// Applications register kernels with a Platform that manages a pool of
// simulated accelerators (GPU, FPGA, TPU, QPU and host CPU), then invoke
// them in a request/response pattern, in process or over TCP. The
// platform keeps kernel runtimes warm across invocations, places new task
// runners across devices, and autoscales runners with in-flight demand —
// so fine-grained tasks skip the initialization overhead that normally
// erases the benefit of acceleration.
//
// A minimal session:
//
//	p, err := kaas.New(kaas.WithAccelerators(kaas.TeslaP100))
//	// handle err
//	defer p.Close()
//	err = p.RegisterByName("matmul")
//	resp, report, err := p.Invoke(ctx, "matmul", kaas.Params{"n": 500}, nil)
//
// Device time is modeled: accelerators are discrete-event simulators with
// cost profiles calibrated to the paper's testbeds, running against a
// scaled virtual clock (see WithTimeScale). Kernel results are computed
// for real in Go.
package kaas

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"kaas/internal/accel"
	"kaas/internal/artifact"
	"kaas/internal/client"
	"kaas/internal/core"
	"kaas/internal/cplane"
	"kaas/internal/kernels"
	"kaas/internal/netshape"
	"kaas/internal/shm"
	"kaas/internal/vclock"
	"kaas/internal/wire"
)

// Re-exported core types. These aliases are the public names of the
// platform's building blocks.
type (
	// DeviceProfile is an accelerator cost model.
	DeviceProfile = accel.Profile
	// DeviceKind identifies an accelerator architecture.
	DeviceKind = accel.Kind
	// Kernel is a registrable accelerator kernel.
	Kernel = kernels.Kernel
	// Params are named numeric invocation parameters.
	Params = kernels.Params
	// Request is a kernel invocation payload.
	Request = kernels.Request
	// Response is a kernel result.
	Response = kernels.Response
	// Cost is a kernel's modeled device cost.
	Cost = kernels.Cost
	// Report describes how an invocation was served.
	Report = core.Report
	// Stats is a server statistics snapshot.
	Stats = core.Stats
	// Client is a TCP client for a remote platform.
	Client = client.Client
	// ClientResult is a completed client invocation.
	ClientResult = client.Result
	// RetryPolicy bounds client retries of connection-level failures.
	RetryPolicy = client.RetryPolicy
	// ClientMetrics is a snapshot of a client's reliability counters.
	ClientMetrics = client.Metrics
	// RemoteError is a failure reported by the server, carrying the wire
	// protocol's machine-readable code. Its Retryable field is derived
	// from the code (overload, unavailability), and the client retries
	// only those.
	RemoteError = client.RemoteError
)

// Machine-readable error codes carried by RemoteError.Code.
const (
	CodeOverloaded       = wire.CodeOverloaded
	CodeUnavailable      = wire.CodeUnavailable
	CodeDeadlineExceeded = wire.CodeDeadlineExceeded
	CodeUnknownKernel    = wire.CodeUnknownKernel
	CodeInternal         = wire.CodeInternal
)

// Typed control-plane errors surfaced by Platform.Invoke.
var (
	// ErrOverloaded: admission control shed the invocation (queue bound,
	// in-flight cap, or deadline-aware rejection). Safe to retry after
	// backoff.
	ErrOverloaded = core.ErrOverloaded
	// ErrDraining: the platform is gracefully shutting down.
	ErrDraining = core.ErrDraining
	// ErrUnavailable: every device of the kernel's kind is excluded by an
	// open circuit breaker.
	ErrUnavailable = core.ErrUnavailable
)

// DefaultRetryPolicy returns the client retry policy used when retries
// are enabled without an explicit policy.
func DefaultRetryPolicy() RetryPolicy { return client.DefaultRetryPolicy() }

// Device kinds.
const (
	CPU  = accel.CPU
	GPU  = accel.GPU
	FPGA = accel.FPGA
	TPU  = accel.TPU
	QPU  = accel.QPU
)

// Placement policies for new task runners.
const (
	PlaceLeastLoaded = core.PlaceLeastLoaded
	PlaceRoundRobin  = core.PlaceRoundRobin
	PlaceFirstFit    = core.PlaceFirstFit
)

// Predefined device profiles calibrated to the paper's testbeds.
var (
	TeslaP100        = accel.TeslaP100
	TeslaV100        = accel.TeslaV100
	NvidiaA100       = accel.NvidiaA100
	AlveoU250        = accel.AlveoU250
	TPUv3Chip        = accel.TPUv3Chip
	AerSimulatorHost = accel.AerSimulatorHost
	FalconR4T        = accel.FalconR4T
	FalconR511H      = accel.FalconR511H
	XeonE52698       = accel.XeonE52698
	EPYC7513         = accel.EPYC7513
)

// KernelSuite returns one instance of every built-in kernel.
func KernelSuite() []Kernel { return kernels.Suite() }

// EncodeFloat64s packs a float64 slice into the kernel payload format
// (little-endian), for in-band and out-of-band data transfer.
func EncodeFloat64s(vals []float64) []byte { return kernels.Float64sToBytes(vals) }

// DecodeFloat64s unpacks a kernel payload into float64s.
func DecodeFloat64s(data []byte) ([]float64, error) { return kernels.BytesToFloat64s(data) }

// KernelByName returns a built-in kernel by name.
func KernelByName(name string) (Kernel, error) { return kernels.ByName(name) }

// Fuse combines two same-kind kernels into one, eliminating the
// intermediate host round trip between them (the paper's kernel-fusion
// optimization, §6). Register the result like any other kernel.
func Fuse(name string, first, second Kernel) (Kernel, error) {
	return kernels.Fuse(name, first, second)
}

// Retarget returns a kernel identical to k but targeting a different
// device kind (e.g. a CPU fallback of a GPU kernel).
func Retarget(k Kernel, kind DeviceKind) Kernel { return kernels.Retarget(k, kind) }

// config collects Platform options.
type config struct {
	timeScale     float64
	hostName      string
	cpu           DeviceProfile
	accels        []DeviceProfile
	maxInFlight   int
	maxPerDevice  int
	placement     core.PlacementPolicy
	listenAddr    string
	listener      net.Listener
	disableResult bool
	logger        *slog.Logger
	invokeTimeout time.Duration
	retryPolicy   *client.RetryPolicy
	clientMux     int
	muxStreams    int

	maxInFlightTotal   int
	maxQueuePerKernel  int
	breakerThreshold   int
	breakerOpenTimeout time.Duration

	tenantWeights        map[string]float64
	maxInFlightPerTenant int
	maxQueuePerTenant    int
	stickinessBound      int

	artifactCacheBytes int64
	keepAlive          core.KeepAlive

	arenaBytes  int64
	batchWindow time.Duration
	batchMax    int

	clusterName    string
	clusterPeers   []string
	clusterBeat    time.Duration
	clusterSuspect int
}

// clientOptions returns the client options implied by the platform
// configuration (timeouts and retry policy), which every client
// constructor applies.
func (c *config) clientOptions() []client.Option {
	var opts []client.Option
	if c.invokeTimeout > 0 {
		opts = append(opts, client.WithTimeout(c.invokeTimeout))
	}
	if c.retryPolicy != nil {
		opts = append(opts, client.WithRetryPolicy(*c.retryPolicy))
	}
	if c.clientMux > 0 {
		opts = append(opts, client.WithMux(c.clientMux))
	}
	return opts
}

// Option configures a Platform.
type Option func(*config)

// WithTimeScale sets how many modeled seconds pass per wall second
// (default 1000). Use 1 to run device costs in real time.
func WithTimeScale(scale float64) Option {
	return func(c *config) { c.timeScale = scale }
}

// WithHostName names the simulated host (default "kaas").
func WithHostName(name string) Option {
	return func(c *config) { c.hostName = name }
}

// WithCPU sets the host CPU profile (default XeonE52698).
func WithCPU(p DeviceProfile) Option {
	return func(c *config) { c.cpu = p }
}

// WithAccelerators attaches accelerator devices to the host.
func WithAccelerators(profiles ...DeviceProfile) Option {
	return func(c *config) { c.accels = append(c.accels, profiles...) }
}

// WithMaxInFlight sets the per-runner in-flight threshold that triggers
// scale-out (default 4).
func WithMaxInFlight(n int) Option {
	return func(c *config) { c.maxInFlight = n }
}

// WithMaxRunnersPerDevice caps runners per device (default 1).
func WithMaxRunnersPerDevice(n int) Option {
	return func(c *config) { c.maxPerDevice = n }
}

// WithPlacement selects the runner placement policy.
func WithPlacement(p core.PlacementPolicy) Option {
	return func(c *config) { c.placement = p }
}

// WithKeepAlive sets the scale-to-zero policy: runners idle longer than
// idle release their device slot (freeing the device-seconds an
// always-warm pool would burn), checked every sweepEvery of modeled
// time. A zero sweepEvery defaults to idle/2; a zero idle disables
// reaping, keeping runners warm forever.
func WithKeepAlive(idle, sweepEvery time.Duration) Option {
	return func(c *config) {
		c.keepAlive.Idle = idle
		c.keepAlive.SweepEvery = sweepEvery
	}
}

// WithPreWarm enables the predictive pre-warm pool: when a kernel scales
// to zero, a per-kernel EWMA over its observed idle-gap lengths predicts
// the next arrival, and one runner is booted lead of modeled time ahead
// of it so the returning burst is served warm. Requires a keepalive
// window (the predictor learns from the gaps the reaper observes); a
// zero lead disables pre-warming.
func WithPreWarm(lead time.Duration) Option {
	return func(c *config) { c.keepAlive.PreWarmLead = lead }
}

// WithArtifactCache gives the platform a content-addressed cache of
// compiled kernel artifacts with the given byte budget (least recently
// used beyond it). A cold start that finds its kernel's artifact cached
// skips JIT compilation entirely — the "cached-cold" start temperature —
// and on a cache miss the compiled artifact is published for later boots
// on this platform. A budget of zero or less disables the cache, and
// every cold start pays the modeled compile cost.
func WithArtifactCache(budgetBytes int64) Option {
	return func(c *config) { c.artifactCacheBytes = budgetBytes }
}

// WithListenAddr serves the platform over TCP on the given address
// (e.g. "127.0.0.1:7070" or ":0" for an ephemeral port).
func WithListenAddr(addr string) Option {
	return func(c *config) { c.listenAddr = addr }
}

// WithListener serves the platform over a caller-provided listener
// instead of opening one. Test and benchmark harnesses use it to
// interpose fault-injecting listeners (internal/faults) between clients
// and the server. It overrides WithListenAddr.
func WithListener(ln net.Listener) Option {
	return func(c *config) { c.listener = ln }
}

// WithInvokeTimeout sets a default per-call deadline for clients created
// by NewClient, NewShapedClient, and NewRDMAClient, applied whenever the
// caller's context carries no deadline. The deadline propagates to
// socket deadlines and over the wire, so the server rejects expired work
// and cancels kernels whose deadline passes mid-flight.
func WithInvokeTimeout(d time.Duration) Option {
	return func(c *config) { c.invokeTimeout = d }
}

// WithRetryPolicy makes clients created by this platform retry
// connection-level failures (dial errors, resets, EOFs) under the given
// bounded backoff policy. Server-reported errors are never retried.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *config) { c.retryPolicy = &p }
}

// WithClientMux sets how many shared connections clients created by
// this platform multiplex their in-flight calls over (default 2;
// protocol version 2: per-stream framing, out-of-order replies, CANCEL
// frames for per-call cancellation).
func WithClientMux(conns int) Option {
	return func(c *config) { c.clientMux = conns }
}

// WithMuxStreams bounds how many invocation streams one multiplexed
// connection may have in flight on this platform's TCP endpoint
// (default 64). Per-connection backpressure: past the bound the server
// stops reading new frames from that connection until a stream
// completes.
func WithMuxStreams(n int) Option {
	return func(c *config) { c.muxStreams = n }
}

// WithAdmissionLimits bounds the load the platform accepts: at most
// maxInFlightTotal invocations in flight server-wide and at most
// maxQueuePerKernel invocations per kernel beyond its healthy capacity.
// Excess requests are shed immediately with ErrOverloaded (OVERLOADED on
// the wire) instead of queueing unboundedly; deadline-carrying requests
// whose remaining budget cannot cover the expected wait are shed too.
// Zero for either limit disables it.
func WithAdmissionLimits(maxInFlightTotal, maxQueuePerKernel int) Option {
	return func(c *config) {
		c.maxInFlightTotal = maxInFlightTotal
		c.maxQueuePerKernel = maxQueuePerKernel
	}
}

// WithTenantWeights enables weighted fair queueing across tenants:
// under saturation each tenant's throughput converges to its weight's
// share of capacity. Tenants absent from the map (including the
// "default" tenant unidentified clients map to) get weight 1;
// non-positive weights are treated as 1.
func WithTenantWeights(weights map[string]float64) Option {
	return func(c *config) {
		if c.tenantWeights == nil {
			c.tenantWeights = make(map[string]float64, len(weights))
		}
		for t, w := range weights {
			c.tenantWeights[t] = w
		}
	}
}

// WithTenantLimits bounds each tenant's load: at most maxInFlight of a
// tenant's invocations execute concurrently, and at most maxQueue wait
// in its fair-queue flows — excess is shed with ErrOverloaded charged
// to that tenant, so one noisy tenant's backlog cannot displace others.
// Zero for either limit disables it.
func WithTenantLimits(maxInFlight, maxQueue int) Option {
	return func(c *config) {
		c.maxInFlightPerTenant = maxInFlight
		c.maxQueuePerTenant = maxQueue
	}
}

// WithStickinessBound tunes warm-runner stickiness in fair dispatch: up
// to bound consecutive grants may bypass strict fairness order in favor
// of a flow whose kernel already holds a warm runner with free
// capacity, after which the strictly-fair flow is served regardless.
// Zero keeps the default (4); negative disables stickiness.
func WithStickinessBound(bound int) Option {
	return func(c *config) { c.stickinessBound = bound }
}

// WithOutOfBand enables the zero-copy out-of-band data plane: a pooled
// tensor arena of arenaBytes total budget is shared with same-host
// clients, which negotiate leased windows into it and pass payloads by
// handle instead of copying them through the wire. Zero bytes keeps a
// 256 MiB default budget. Requires a TCP endpoint; every client created
// via NewClient leases from the arena, with no other option set.
func WithOutOfBand(arenaBytes int64) Option {
	return func(c *config) {
		if arenaBytes <= 0 {
			arenaBytes = 256 << 20
		}
		c.arenaBytes = arenaBytes
	}
}

// WithBatching enables server-side micro-batching: same-kernel
// invocations arriving within window of modeled time (or up to max per
// batch, whichever fills first) coalesce into a single device dispatch
// that pays the launch overhead once. max <= 1 keeps the default cap
// of 8.
func WithBatching(window time.Duration, max int) Option {
	return func(c *config) {
		c.batchWindow = window
		c.batchMax = max
	}
}

// WithBreaker tunes the per-device circuit breakers: threshold
// consecutive device failures open a device's breaker (excluding it from
// placement), and after openTimeout of modeled time one probe invocation
// tests whether it healed. A negative threshold disables breakers; zero
// keeps the defaults (3 failures, 5s).
func WithBreaker(threshold int, openTimeout time.Duration) Option {
	return func(c *config) {
		c.breakerThreshold = threshold
		c.breakerOpenTimeout = openTimeout
	}
}

// WithClusterNode joins this platform's TCP endpoint to the wire-backed
// cluster control plane as the named node, seeded with the given peer
// addresses. The node heartbeats its peers on the modeled clock,
// gossips its health summary (drain state, in-flight load, shed rate,
// open breakers per device kind), adopts kernel registrations gossiped
// by peers, and answers MsgControl status queries (kaasctl cluster
// status). Membership is symmetric: one reachable seed is enough to
// join, and peers learn this node's address from its first heartbeat.
// Requires a TCP endpoint (WithListenAddr or WithListener).
func WithClusterNode(name string, peers ...string) Option {
	return func(c *config) {
		c.clusterName = name
		c.clusterPeers = append([]string(nil), peers...)
	}
}

// WithClusterHeartbeat tunes the cluster node's failure detector: every
// is the modeled heartbeat interval per peer (default 1s), and
// suspectAfter the consecutive misses that mark a peer down (default 2).
func WithClusterHeartbeat(every time.Duration, suspectAfter int) Option {
	return func(c *config) {
		c.clusterBeat = every
		c.clusterSuspect = suspectAfter
	}
}

// WithoutResultComputation disables real kernel computation; invocations
// charge modeled device time only. Used by the benchmark harness.
func WithoutResultComputation() Option {
	return func(c *config) { c.disableResult = true }
}

// WithLogger routes the platform's structured lifecycle events
// (registrations, cold starts, evictions, failovers) to the given logger.
func WithLogger(l *slog.Logger) Option {
	return func(c *config) { c.logger = l }
}

// Platform is a KaaS deployment: a simulated accelerator host, the KaaS
// server on top of it, and optionally a TCP endpoint.
type Platform struct {
	clock      vclock.Clock
	host       *accel.Host
	server     *core.Server
	tcp        *core.TCPServer
	arena      *shm.ArenaPool
	artifacts  *artifact.Cache
	node       *cplane.Node
	clientOpts []client.Option
}

// New creates a platform. With no options it models a host with a single
// Tesla P100 GPU.
func New(opts ...Option) (*Platform, error) {
	cfg := config{
		timeScale: 1000,
		hostName:  "kaas",
		cpu:       XeonE52698,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if len(cfg.accels) == 0 {
		cfg.accels = []DeviceProfile{TeslaP100}
	}
	clock := vclock.Scaled(cfg.timeScale)
	host, err := accel.NewHost(clock, cfg.hostName, cfg.cpu, cfg.accels...)
	if err != nil {
		return nil, fmt.Errorf("kaas: %w", err)
	}
	var artifacts *artifact.Cache
	if cfg.artifactCacheBytes > 0 {
		artifacts = artifact.NewCache(cfg.artifactCacheBytes)
	}
	server, err := core.New(core.Config{
		Clock:                clock,
		Host:                 host,
		MaxInFlightPerRunner: cfg.maxInFlight,
		MaxRunnersPerDevice:  cfg.maxPerDevice,
		Placement:            cfg.placement,
		KeepAlive:            cfg.keepAlive,
		Artifacts:            artifacts,
		MaxInFlightTotal:     cfg.maxInFlightTotal,
		MaxQueuePerKernel:    cfg.maxQueuePerKernel,
		TenantWeights:        cfg.tenantWeights,
		MaxInFlightPerTenant: cfg.maxInFlightPerTenant,
		MaxQueuePerTenant:    cfg.maxQueuePerTenant,
		StickinessBound:      cfg.stickinessBound,
		BreakerThreshold:     cfg.breakerThreshold,
		BreakerOpenTimeout:   cfg.breakerOpenTimeout,
		BatchWindow:          cfg.batchWindow,
		BatchMax:             cfg.batchMax,
		DisableCompute:       cfg.disableResult,
		Logger:               cfg.logger,
	})
	if err != nil {
		host.Close()
		return nil, fmt.Errorf("kaas: %w", err)
	}
	p := &Platform{
		clock:      clock,
		host:       host,
		server:     server,
		artifacts:  artifacts,
		clientOpts: cfg.clientOptions(),
	}
	var tcpOpts []core.TCPOption
	if cfg.arenaBytes > 0 {
		if ok, reason := shm.Supported(); !ok {
			server.Close()
			host.Close()
			return nil, fmt.Errorf("kaas: out-of-band data plane unavailable: %s", reason)
		}
		p.arena = shm.NewArenaPool(cfg.arenaBytes)
		tcpOpts = append(tcpOpts, core.WithArenaPool(p.arena))
	}
	switch {
	case cfg.listener != nil:
		tcp, err := core.ServeTCPListener(server, cfg.listener, tcpOpts...)
		if err != nil {
			server.Close()
			host.Close()
			return nil, fmt.Errorf("kaas: %w", err)
		}
		p.tcp = tcp
	case cfg.listenAddr != "":
		tcp, err := core.ServeTCP(server, cfg.listenAddr, tcpOpts...)
		if err != nil {
			server.Close()
			host.Close()
			return nil, fmt.Errorf("kaas: %w", err)
		}
		p.tcp = tcp
	}
	if p.tcp != nil && cfg.muxStreams > 0 {
		p.tcp.SetMaxConnStreams(cfg.muxStreams)
	}
	if cfg.clusterName != "" {
		if p.tcp == nil {
			p.Close()
			return nil, fmt.Errorf("kaas: a cluster node needs a TCP endpoint (use WithListenAddr)")
		}
		p.node = cplane.NewNode(cplane.Config{
			Name:           cfg.clusterName,
			Addr:           p.tcp.Addr(),
			Clock:          clock,
			Local:          server,
			HeartbeatEvery: cfg.clusterBeat,
			SuspectAfter:   cfg.clusterSuspect,
			DialOptions:    cfg.clientOptions(),
			Logger:         cfg.logger,
		})
		p.tcp.SetControlHandler(p.node.HandleControl)
		for _, peer := range cfg.clusterPeers {
			p.node.Join(peer)
		}
	}
	return p, nil
}

// Register deploys a kernel implementation on the platform.
func (p *Platform) Register(k Kernel) error { return p.server.Register(k) }

// RegisterByName deploys a built-in kernel from the library.
func (p *Platform) RegisterByName(name string) error {
	k, err := kernels.ByName(name)
	if err != nil {
		return err
	}
	return p.server.Register(k)
}

// Invoke calls a registered kernel in process.
func (p *Platform) Invoke(ctx context.Context, name string, params Params, data []byte) (*Response, *Report, error) {
	return p.server.Invoke(ctx, name, &kernels.Request{Params: params, Data: data})
}

// InvokeTenant calls a registered kernel in process on behalf of the
// named tenant, so in-process callers participate in fair queueing like
// remote peers. An empty tenant maps to the server's default tenant.
func (p *Platform) InvokeTenant(ctx context.Context, tenant, name string, params Params, data []byte) (*Response, *Report, error) {
	return p.server.Invoke(ctx, name, &kernels.Request{Params: params, Data: data, Tenant: tenant})
}

// Kernels lists the registered kernel names.
func (p *Platform) Kernels() []string { return p.server.Kernels() }

// Stats returns the server's statistics snapshot.
func (p *Platform) Stats() Stats { return p.server.Stats() }

// WriteMetrics writes the platform's metrics in the Prometheus text
// exposition format: per-kernel invocation counters and latency
// histograms (split cold/warm), per-device runner and eviction counters,
// and live device occupancy gauges.
func (p *Platform) WriteMetrics(w io.Writer) error { return p.server.WriteMetrics(w) }

// MetricsHandler returns an HTTP handler serving WriteMetrics, mountable
// as a Prometheus scrape endpoint (see kaasd's -metrics flag).
func (p *Platform) MetricsHandler() http.Handler { return p.server.MetricsHandler() }

// ClusterNode returns the platform's cluster control-plane node, or nil
// when the platform was built without WithClusterNode.
func (p *Platform) ClusterNode() *cplane.Node { return p.node }

// Addr returns the TCP listen address, or "" when not serving.
func (p *Platform) Addr() string {
	if p.tcp == nil {
		return ""
	}
	return p.tcp.Addr()
}

// NewClient returns a TCP client for this platform's endpoint. When the
// platform runs with WithOutOfBand, the client maps the tensor arena and
// moves payloads by leased window automatically.
func (p *Platform) NewClient() (*Client, error) {
	if p.tcp == nil {
		return nil, fmt.Errorf("kaas: platform has no TCP endpoint (use WithListenAddr)")
	}
	opts := p.clientOpts
	if p.arena != nil {
		opts = append([]client.Option{client.WithArena(p.arena)}, opts...)
	}
	return client.Dial(p.tcp.Addr(), opts...), nil
}

// NewShapedClient returns a TCP client whose traffic is shaped as a
// 1 Gbps / 0.15 ms RTT link, modeling the paper's remote-invocation
// testbed.
func (p *Platform) NewShapedClient() (*Client, error) {
	if p.tcp == nil {
		return nil, fmt.Errorf("kaas: platform has no TCP endpoint (use WithListenAddr)")
	}
	link := netshape.GigabitEthernet(p.clock)
	opts := append([]client.Option{client.WithLink(link)}, p.clientOpts...)
	return client.Dial(p.tcp.Addr(), opts...), nil
}

// NewRDMAClient returns a TCP client shaped as an RDMA fabric
// (100 Gbps, microsecond round trips) — the co-designed transport the
// paper's §6 proposes for lower invocation overhead.
func (p *Platform) NewRDMAClient() (*Client, error) {
	if p.tcp == nil {
		return nil, fmt.Errorf("kaas: platform has no TCP endpoint (use WithListenAddr)")
	}
	link := netshape.RDMA(p.clock)
	opts := append([]client.Option{client.WithLink(link)}, p.clientOpts...)
	return client.Dial(p.tcp.Addr(), opts...), nil
}

// Close shuts the platform down immediately. In-flight invocations are
// fenced (their device contexts stay live until they finish) but new
// work is rejected at once and open connections are cut. For a graceful
// stop that lets in-flight work complete, use Shutdown.
func (p *Platform) Close() {
	if p.node != nil {
		p.node.Close()
	}
	if p.tcp != nil {
		p.tcp.Close()
	}
	p.server.Close()
	p.host.Close()
}

// Shutdown drains the platform gracefully: the TCP endpoint stops
// accepting and finishes requests already in flight, the server waits
// for in-flight invocations to complete, then everything closes. The
// context bounds the whole drain; when it expires the remaining work is
// fenced and cut as in Close, and the context's error is returned.
func (p *Platform) Shutdown(ctx context.Context) error {
	var err error
	if p.node != nil {
		// Peers learn the drain from the last gossip exchanges and the
		// routing layer stops picking this node; stopping our own
		// heartbeats costs nothing further.
		p.node.Close()
	}
	if p.tcp != nil {
		err = p.tcp.Drain(ctx)
	}
	if derr := p.server.Drain(ctx); err == nil {
		err = derr
	}
	p.host.Close()
	return err
}
