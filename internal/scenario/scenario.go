package scenario

import (
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kaas"
	"kaas/internal/accel"
	"kaas/internal/artifact"
	"kaas/internal/client"
	"kaas/internal/core"
	"kaas/internal/cplane"
	"kaas/internal/faults"
	"kaas/internal/kernels"
	"kaas/internal/netshape"
	"kaas/internal/shm"
	"kaas/internal/vclock"
	"kaas/internal/workload"
)

// Transport selects the invocation path a scenario exercises.
type Transport string

// Transports.
const (
	// TransportInProcess invokes core.Server directly — the control
	// plane without a wire in front of it.
	TransportInProcess Transport = "inproc"
	// TransportWire goes through the full wire protocol: one client over
	// MuxConns shared connections (client default when zero), behind a
	// modeled BaseLink when one is set, so link chaos has something to
	// degrade.
	TransportWire Transport = "wire"
	// TransportNodes invokes through the wire-backed cluster control
	// plane: Hosts kaasd platforms joined into one gossip cluster, with a
	// cplane.Router dispatching over the wire and failing work over
	// across nodes under a shared retry budget.
	TransportNodes Transport = "nodes"
)

// Spec is a complete scenario: the workload, the platform shape, the
// chaos schedule, and the invariants that must hold.
type Spec struct {
	// Name and Description identify the scenario in listings.
	Name, Description string
	// Transport is the invocation path.
	Transport Transport
	// Trace describes the synthetic workload. When an external trace is
	// replayed instead (kaasbench -scenario-trace), it replaces this.
	Trace TraceSpec
	// GPUs is the accelerator count per host (default 2).
	GPUs int
	// Hosts is the cluster host count (nodes transport only,
	// default 2).
	Hosts int
	// MaxConcurrent caps in-flight replay invocations (default 32).
	MaxConcurrent int
	// MaxInFlightTotal and MaxQueuePerKernel configure admission
	// control (0 = uncapped).
	MaxInFlightTotal, MaxQueuePerKernel int
	// TenantWeights enables weighted fair queueing across the trace's
	// tenants (absent tenants get weight 1).
	TenantWeights map[string]float64
	// MaxInFlightPerTenant and MaxQueuePerTenant bound each tenant's
	// concurrent and queued load (0 = uncapped); the excess is shed with
	// OVERLOADED charged to the offending tenant.
	MaxInFlightPerTenant, MaxQueuePerTenant int
	// StickinessBound caps consecutive warm-runner fairness bypasses
	// (0 = core default, negative disables stickiness).
	StickinessBound int
	// BreakerThreshold and BreakerOpenTimeout configure the device
	// circuit breakers (0 = core defaults).
	BreakerThreshold   int
	BreakerOpenTimeout time.Duration
	// KeepAliveIdle enables scale-to-zero when positive: idle runners
	// release their device slots after this much modeled time.
	// KeepAliveSweep is the reaper cadence (0 = idle/2).
	KeepAliveIdle, KeepAliveSweep time.Duration
	// PreWarmLead enables predictive pre-warming when positive: once a
	// kernel scales to zero, a speculative runner boots this much
	// modeled time before the predicted next arrival.
	PreWarmLead time.Duration
	// ArtifactCacheBytes enables the content-addressed compiled-kernel
	// cache with this byte budget when positive, so repeat cold starts
	// skip the modeled JIT compile (cached-cold).
	ArtifactCacheBytes int64
	// OOB enables the zero-copy out-of-band data plane (wire
	// transport): the server fronts a pooled tensor arena, the client
	// negotiates per-stream leases, and breaker-open/drain revoke them
	// mid-load. ArenaBytes is the arena budget (0 = 256 MiB).
	OOB        bool
	ArenaBytes int64
	// Retry enables client retries (wire transport); its Seed is
	// re-derived from the scenario seed at run time.
	Retry *client.RetryPolicy
	// RetryBudgetCapacity and RetryBudgetRatio shape the shared
	// cross-host retry budget of the nodes transport (0 = a generous
	// 256-token bucket refilled at half a token per success — wide enough
	// that legitimate failover is never clipped, finite so a storm is).
	RetryBudgetCapacity, RetryBudgetRatio float64
	// MuxConns is the wire client's shared connection count (0 = the
	// client default).
	MuxConns int
	// BaseLink is the wire client's healthy link profile (zero = no
	// modeled link).
	BaseLink netshape.Profile
	// InvokeTimeout bounds each invocation in wall time (default 30s) —
	// the backstop that keeps a wedged invocation from hanging the run.
	InvokeTimeout time.Duration
	// Chaos is the fault schedule.
	Chaos Chaos
	// Invariants are the pass/fail properties checked after the run.
	Invariants []Invariant
}

// withDefaults fills the zero-valued knobs.
func (s Spec) withDefaults() Spec {
	if s.GPUs <= 0 {
		s.GPUs = 2
	}
	if s.Hosts <= 0 {
		s.Hosts = 2
	}
	if s.MaxConcurrent <= 0 {
		s.MaxConcurrent = 32
	}
	if s.InvokeTimeout <= 0 {
		s.InvokeTimeout = 30 * time.Second
	}
	return s
}

// errSpec builds a scenario configuration error.
func errSpec(format string, args ...any) error {
	return fmt.Errorf("scenario: "+format, args...)
}

// Verdict is one invariant's outcome for a run.
type Verdict struct {
	Invariant string `json:"invariant"`
	Pass      bool   `json:"pass"`
	Detail    string `json:"detail,omitempty"`
}

// Result reports one scenario run. The fields rendered by
// DeterministicLines are identical across same-seed runs; the rest
// (latencies, outcome splits, wall time) depend on real scheduling and
// are diagnostics for the JSON report.
type Result struct {
	Scenario    string `json:"scenario"`
	Description string `json:"description,omitempty"`
	Transport   string `json:"transport"`
	Seed        int64  `json:"seed"`
	Events      int    `json:"events"`
	Fingerprint string `json:"trace_fingerprint"`
	// ScriptedTransitions is the chaos transition count the spec
	// scripts (deterministic); ObservedTransitions is what actually ran.
	ScriptedTransitions int       `json:"scripted_transitions"`
	Verdicts            []Verdict `json:"verdicts"`
	Passed              bool      `json:"passed"`

	Issued              int                 `json:"issued"`
	Counts              map[string]int      `json:"counts"`
	ObservedTransitions int                 `json:"observed_transitions"`
	BreakerTransitions  uint64              `json:"breaker_transitions"`
	Failover            *cplane.RouterStats `json:"failover,omitempty"`
	LatencyMS           map[string]float64  `json:"latency_ms,omitempty"`
	WallMS              float64             `json:"wall_ms"`
}

// DeterministicLines renders the reproducible output surface: everything
// here is a pure function of (scenario, seed), so two same-seed runs must
// print byte-identical lines — that is the contract `kaasbench -scenario`
// CI reproducibility checks diff.
func (r *Result) DeterministicLines() []string {
	lines := []string{
		fmt.Sprintf("scenario %s: transport=%s seed=%d", r.Scenario, r.Transport, r.Seed),
		fmt.Sprintf("  trace: %d events, fingerprint %s", r.Events, r.Fingerprint),
		fmt.Sprintf("  chaos: %d scripted transitions", r.ScriptedTransitions),
	}
	for _, v := range r.Verdicts {
		s := "PASS"
		if !v.Pass {
			s = "FAIL — " + v.Detail
		}
		lines = append(lines, fmt.Sprintf("  invariant %s: %s", v.Invariant, s))
	}
	verdict := "PASS"
	if !r.Passed {
		verdict = "FAIL"
	}
	lines = append(lines, fmt.Sprintf("  result: %s", verdict))
	return lines
}

// kernelNames returns the distinct kernels of a trace, in first-seen
// order.
func kernelNames(t Trace) []string {
	seen := map[string]bool{}
	var names []string
	for _, e := range t {
		if !seen[e.Kernel] {
			seen[e.Kernel] = true
			names = append(names, e.Kernel)
		}
	}
	return names
}

// harness is an assembled transport: an invoke function plus the chaos
// targets and teardown for whatever was built.
type harness struct {
	invoke func(ctx context.Context, e Event) error
	env    *chaosEnv
	stats  func() []core.Stats
	// failover snapshots the cluster router's dispatch counters (nodes
	// transport only, nil elsewhere).
	failover func() cplane.RouterStats
	cleanup  []func()
}

func (h *harness) close() {
	for i := len(h.cleanup) - 1; i >= 0; i-- {
		h.cleanup[i]()
	}
}

// Run executes the scenario with the given seed and time scale and
// returns its result. Harness failures (invalid spec, setup errors)
// return an error; invariant failures are verdicts in the result.
func Run(ctx context.Context, spec Spec, seed int64, scale float64) (*Result, error) {
	spec = spec.withDefaults()
	if scale <= 0 {
		return nil, errSpec("time scale must be positive, got %g", scale)
	}
	trace, err := Synthesize(spec.Trace, seed)
	if err != nil {
		return nil, err
	}
	return RunTrace(ctx, spec, trace, seed, scale)
}

// RunTrace executes the scenario against an explicit trace (synthesized
// by Run, or loaded from a CSV recording).
func RunTrace(ctx context.Context, spec Spec, trace Trace, seed int64, scale float64) (*Result, error) {
	spec = spec.withDefaults()
	if len(trace) == 0 {
		return nil, errSpec("empty trace")
	}
	clock := vclock.Scaled(scale)
	h, err := buildHarness(spec, trace, clock, seed, scale)
	if err != nil {
		return nil, err
	}
	defer h.close()

	var (
		mu      sync.Mutex
		issued  atomic.Int64
		records []Record
	)
	// AfterEvent chaos triggers anchor to this counter, so it must be
	// visible to the injectors before they start.
	h.env.issued = func() int { return int(issued.Load()) }

	chaos, err := spec.Chaos.start(ctx, h.env, seed)
	if err != nil {
		return nil, err
	}

	task := func(tctx context.Context, i int) (time.Duration, error) {
		issued.Add(1)
		e := trace[i]
		ictx, cancel := context.WithTimeout(tctx, spec.InvokeTimeout)
		t0 := time.Now()
		err := h.invoke(ictx, e)
		d := time.Since(t0)
		cancel()
		rec := Record{Index: i, Outcome: Classify(err), Latency: d, Tenant: core.NormalizeTenant(e.Tenant)}
		if err != nil {
			rec.Err = err.Error()
		}
		mu.Lock()
		records = append(records, rec)
		mu.Unlock()
		// Errors are classified above, never surfaced to the replay: the
		// arrival process must keep firing through chaos.
		return d, nil
	}

	wallStart := time.Now()
	if _, err := workload.Replay(ctx, clock, trace.Offsets(), spec.MaxConcurrent, task); err != nil {
		chaos.wg.Wait()
		return nil, fmt.Errorf("scenario %s: replay: %w", spec.Name, err)
	}
	chaos.wg.Wait()
	wall := time.Since(wallStart)
	for _, cerr := range chaos.errs {
		return nil, fmt.Errorf("scenario %s: chaos injector: %w", spec.Name, cerr)
	}

	stats := h.stats()
	data := &RunData{
		Seed:                seed,
		Issued:              int(issued.Load()),
		Records:             records,
		Counts:              map[Outcome]int{},
		Stats:               stats,
		ScriptedTransitions: spec.Chaos.Transitions(),
		ObservedTransitions: chaos.transitions(),
		Drained:             chaos.drained,
		DrainErr:            chaos.drainErr,
	}
	if h.failover != nil {
		fs := h.failover()
		data.Failover = &fs
	}
	sort.Slice(data.Records, func(i, j int) bool { return data.Records[i].Index < data.Records[j].Index })
	for _, r := range data.Records {
		data.Counts[r.Outcome]++
	}
	for _, st := range stats {
		for _, dev := range st.PerDevice {
			data.BreakerTransitions += dev.BreakerTransitions
		}
	}

	res := &Result{
		Scenario:            spec.Name,
		Description:         spec.Description,
		Transport:           string(spec.Transport),
		Seed:                seed,
		Events:              len(trace),
		Fingerprint:         trace.Fingerprint(),
		ScriptedTransitions: data.ScriptedTransitions,
		Passed:              true,
		Issued:              data.Issued,
		Counts:              map[string]int{},
		ObservedTransitions: data.ObservedTransitions,
		BreakerTransitions:  data.BreakerTransitions,
		Failover:            data.Failover,
		WallMS:              float64(wall) / float64(time.Millisecond),
	}
	for out, n := range data.Counts {
		res.Counts[string(out)] = n
	}
	if lat := okLatencies(records); len(lat) > 0 {
		res.LatencyMS = map[string]float64{
			"p50": percentileMS(lat, 0.50),
			"p95": percentileMS(lat, 0.95),
			"p99": percentileMS(lat, 0.99),
		}
	}
	for _, inv := range spec.Invariants {
		v := Verdict{Invariant: inv.Name(), Pass: true}
		if err := inv.Check(data); err != nil {
			v.Pass = false
			v.Detail = err.Error()
			res.Passed = false
		}
		res.Verdicts = append(res.Verdicts, v)
	}
	return res, nil
}

// okLatencies returns the sorted wall latencies of successful records.
func okLatencies(records []Record) []time.Duration {
	var out []time.Duration
	for _, r := range records {
		if r.Outcome == OutcomeOK {
			out = append(out, r.Latency)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// percentileMS reads percentile p (nearest rank) from sorted latencies,
// in ms.
func percentileMS(sorted []time.Duration, p float64) float64 {
	return float64(sorted[rankIndex(len(sorted), p)]) / float64(time.Millisecond)
}

// buildHarness assembles the transport the spec asks for.
func buildHarness(spec Spec, trace Trace, clock vclock.Clock, seed int64, scale float64) (*harness, error) {
	// Register the union of the spec's mix and the trace's kernels, so
	// externally loaded traces work without editing the scenario.
	names := kernelNames(trace)
	switch spec.Transport {
	case TransportNodes:
		return buildNodes(spec, names, clock, scale)
	case TransportInProcess, TransportWire:
		return buildServer(spec, names, clock, seed)
	default:
		return nil, errSpec("unknown transport %q", spec.Transport)
	}
}

// buildServer assembles the single-host transports: a core.Server with
// the spec's admission/breaker shape, optionally fronted by the wire
// protocol (over MuxConns connections, behind a modeled link when
// BaseLink is set), with chaos hooks wired to whatever exists on the
// chosen path.
func buildServer(spec Spec, names []string, clock vclock.Clock, seed int64) (*harness, error) {
	h := &harness{}
	profiles := make([]accel.Profile, spec.GPUs)
	for i := range profiles {
		profiles[i] = accel.TeslaP100
	}
	host, err := accel.NewHost(clock, "scenario", accel.XeonE52698, profiles...)
	if err != nil {
		return nil, err
	}
	h.cleanup = append(h.cleanup, host.Close)
	var cache *artifact.Cache
	if spec.ArtifactCacheBytes > 0 {
		cache = artifact.NewCache(spec.ArtifactCacheBytes)
	}
	srv, err := core.New(core.Config{
		Clock:                clock,
		Host:                 host,
		MaxInFlightTotal:     spec.MaxInFlightTotal,
		MaxQueuePerKernel:    spec.MaxQueuePerKernel,
		TenantWeights:        spec.TenantWeights,
		MaxInFlightPerTenant: spec.MaxInFlightPerTenant,
		MaxQueuePerTenant:    spec.MaxQueuePerTenant,
		StickinessBound:      spec.StickinessBound,
		BreakerThreshold:     spec.BreakerThreshold,
		BreakerOpenTimeout:   spec.BreakerOpenTimeout,
		KeepAlive: core.KeepAlive{
			Idle:        spec.KeepAliveIdle,
			SweepEvery:  spec.KeepAliveSweep,
			PreWarmLead: spec.PreWarmLead,
		},
		Artifacts:      cache,
		DisableCompute: true,
	})
	if err != nil {
		h.close()
		return nil, err
	}
	h.cleanup = append(h.cleanup, srv.Close)
	for _, name := range names {
		k, err := kernels.ByName(name)
		if err != nil {
			h.close()
			return nil, err
		}
		if err := srv.Register(k); err != nil {
			h.close()
			return nil, err
		}
	}
	h.env = &chaosEnv{clock: clock, drain: srv.Drain}
	for _, d := range host.Devices() {
		h.env.devices = append(h.env.devices, d)
	}
	h.stats = func() []core.Stats { return []core.Stats{srv.Stats()} }

	if spec.Transport == TransportInProcess {
		h.invoke = func(ctx context.Context, e Event) error {
			_, _, err := srv.Invoke(ctx, e.Kernel, &kernels.Request{
				Params: kernels.Params{"n": e.N},
				Data:   make([]byte, e.Payload),
				Tenant: e.Tenant,
			})
			return err
		}
		return h, nil
	}

	// The wire transport serves through a fault-injecting listener, the
	// conn-kill chaos target.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.close()
		return nil, err
	}
	var (
		tcpOpts []core.TCPOption
		arena   *shm.ArenaPool
	)
	if spec.OOB {
		if ok, reason := shm.Supported(); !ok {
			h.close()
			return nil, errSpec("OOB data plane unavailable: %s", reason)
		}
		bytes := spec.ArenaBytes
		if bytes <= 0 {
			bytes = 256 << 20
		}
		arena = shm.NewArenaPool(bytes)
		tcpOpts = append(tcpOpts, core.WithArenaPool(arena))
	}
	fln := faults.Wrap(ln, faults.Script())
	tcp, err := core.ServeTCPListener(srv, fln, tcpOpts...)
	if err != nil {
		ln.Close()
		h.close()
		return nil, err
	}
	h.cleanup = append(h.cleanup, func() { tcp.Close() })
	h.env.listener = fln

	var opts []client.Option
	if spec.Retry != nil {
		p := *spec.Retry
		p.Seed = seed ^ 0x7265747279 // sub-seed: "retry"
		opts = append(opts, client.WithRetryPolicy(p))
	}
	if arena != nil {
		opts = append(opts, client.WithArena(arena))
	}
	if spec.MuxConns > 0 {
		opts = append(opts, client.WithMux(spec.MuxConns))
	}
	if spec.BaseLink != (netshape.Profile{}) {
		if err := spec.BaseLink.Validate(); err != nil {
			h.close()
			return nil, errSpec("wire transport base link: %v", err)
		}
		link, err := netshape.NewLinkProfile(clock, spec.BaseLink)
		if err != nil {
			h.close()
			return nil, err
		}
		h.env.link = link
		opts = append(opts, client.WithLink(link))
	}
	c := client.Dial(tcp.Addr(), opts...)
	h.cleanup = append(h.cleanup, c.Close)
	h.invoke = func(ctx context.Context, e Event) error {
		_, err := c.InvokeTenantContext(ctx, e.Tenant, e.Kernel, kernels.Params{"n": e.N}, make([]byte, e.Payload))
		return err
	}
	return h, nil
}

// tenantOptions translates the spec's fairness knobs into platform
// options for the nodes transport.
func tenantOptions(spec Spec) []kaas.Option {
	var opts []kaas.Option
	if len(spec.TenantWeights) > 0 {
		opts = append(opts, kaas.WithTenantWeights(spec.TenantWeights))
	}
	if spec.MaxInFlightPerTenant > 0 || spec.MaxQueuePerTenant > 0 {
		opts = append(opts, kaas.WithTenantLimits(spec.MaxInFlightPerTenant, spec.MaxQueuePerTenant))
	}
	if spec.StickinessBound != 0 {
		opts = append(opts, kaas.WithStickinessBound(spec.StickinessBound))
	}
	return opts
}

// buildNodes assembles the wire-backed cluster transport: Hosts kaasd
// platforms joined into one gossip cluster over MsgControl frames, an
// observer control-plane node tracking their health from the client
// side, and a cplane.Router dispatching every invocation over the wire
// with cross-host failover under a shared retry budget. Node-kill chaos
// closes a platform abruptly (connections die mid-request); host-down
// chaos drains one gracefully.
func buildNodes(spec Spec, names []string, clock vclock.Clock, scale float64) (*harness, error) {
	h := &harness{}
	profiles := make([]kaas.DeviceProfile, spec.GPUs)
	for i := range profiles {
		profiles[i] = kaas.TeslaP100
	}
	platforms := make([]*kaas.Platform, spec.Hosts)
	var seeds []string
	for i := range platforms {
		opts := []kaas.Option{
			kaas.WithTimeScale(scale),
			kaas.WithHostName(fmt.Sprintf("node%d", i)),
			kaas.WithAccelerators(profiles...),
			kaas.WithAdmissionLimits(spec.MaxInFlightTotal, spec.MaxQueuePerKernel),
			kaas.WithBreaker(spec.BreakerThreshold, spec.BreakerOpenTimeout),
			kaas.WithoutResultComputation(),
			kaas.WithListenAddr("127.0.0.1:0"),
			// Every node seeds from the ones before it; gossip converges
			// the rest of the mesh.
			kaas.WithClusterNode(fmt.Sprintf("node%d", i), seeds...),
		}
		opts = append(opts, tenantOptions(spec)...)
		p, err := kaas.New(opts...)
		if err != nil {
			h.close()
			return nil, err
		}
		platforms[i] = p
		h.cleanup = append(h.cleanup, p.Close)
		seeds = append(seeds, p.Addr())
	}

	obs := cplane.NewNode(cplane.Config{Name: "bench-router", Clock: clock})
	h.cleanup = append(h.cleanup, obs.Close)
	for _, p := range platforms {
		obs.Join(p.Addr())
	}
	wctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := obs.WaitMembers(wctx, spec.Hosts); err != nil {
		h.close()
		return nil, err
	}

	capacity, ratio := spec.RetryBudgetCapacity, spec.RetryBudgetRatio
	if capacity <= 0 {
		capacity = 256
	}
	if ratio <= 0 {
		ratio = 0.5
	}
	router := cplane.NewRouter(cplane.RouterConfig{
		Node:   obs,
		Budget: client.NewRetryBudget(capacity, ratio),
		// The scenario kernels are pure functions of their parameters, so
		// re-dispatching after an ambiguous connection failure is safe.
		Idempotent: true,
	})
	h.cleanup = append(h.cleanup, router.Close)
	for _, name := range names {
		if err := router.Register(wctx, name); err != nil {
			h.close()
			return nil, err
		}
	}

	h.env = &chaosEnv{
		clock: clock,
		nodeKill: func(node int) error {
			if node < 0 || node >= len(platforms) {
				return errSpec("node-kill node %d out of range (cluster has %d)", node, len(platforms))
			}
			platforms[node].Close()
			return nil
		},
		hostDown: func(ctx context.Context, host int) error {
			if host < 0 || host >= len(platforms) {
				return errSpec("host-down host %d out of range (cluster has %d)", host, len(platforms))
			}
			return platforms[host].Shutdown(ctx)
		},
	}
	h.stats = func() []core.Stats {
		out := make([]core.Stats, len(platforms))
		for i, p := range platforms {
			out[i] = p.Stats()
		}
		return out
	}
	h.failover = router.Stats
	h.invoke = func(ctx context.Context, e Event) error {
		_, err := router.InvokeTenant(ctx, e.Tenant, e.Kernel, kernels.Params{"n": e.N}, make([]byte, e.Payload))
		return err
	}
	return h, nil
}

// List returns the registry's scenario names, sorted.
func List() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Lookup returns a registered scenario spec by name. The error lists the
// known names so a typo on the command line is self-correcting.
func Lookup(name string) (Spec, error) {
	spec, ok := registry[name]
	if !ok {
		return Spec{}, errSpec("unknown scenario %q (known: %s)", name, strings.Join(List(), ", "))
	}
	return spec, nil
}
