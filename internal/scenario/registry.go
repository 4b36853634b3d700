package scenario

import (
	"time"

	"kaas/internal/client"
	"kaas/internal/faults"
	"kaas/internal/netshape"
)

// registry holds the named scenario matrix. Every entry is pure data —
// chaos schedules with fixed cycle counts, trace specs expanded from the
// run seed — so `kaasbench -scenario <name> -seed N` is reproducible by
// construction. All durations in trace and chaos schedules are modeled
// time (compressed by the run's time scale); InvokeTimeout and drain
// timeouts are wall-clock backstops.
//
// The matrix deliberately covers every transport: the in-process control
// plane, the wire transport (default and widened connection counts, and
// behind a modeled link), and wire-joined cluster nodes.
var registry = map[string]Spec{
	"replay-diurnal": {
		Name:        "replay-diurnal",
		Description: "diurnal open-loop trace on the in-process control plane; quiet-path contract: every invocation succeeds",
		Transport:   TransportInProcess,
		Trace: TraceSpec{
			Events: 400,
			Arrivals: ArrivalSpec{
				Kind:      "diurnal",
				Mean:      30 * time.Millisecond,
				Amplitude: 0.6,
				Period:    4 * time.Second,
			},
			Mix: []KernelMix{
				{Kernel: "mci", Weight: 3, MinN: 5e8, MaxN: 2e9},
				{Kernel: "mci", Weight: 1, MinN: 2e9, MaxN: 4e9, Payload: 4 << 10},
			},
		},
		Invariants: []Invariant{
			Accounted{},
			TypedFailures{},
			OutcomesIn{Allowed: []Outcome{OutcomeOK}},
			MinSuccess{Fraction: 1},
			BoundedP99{Max: 10 * time.Second},
		},
	},

	"replay-burst": {
		Name:        "replay-burst",
		Description: "MMPP bursts against admission control; the excess is shed with OVERLOADED, never lost or failed untyped",
		Transport:   TransportInProcess,
		Trace: TraceSpec{
			Events: 500,
			Arrivals: ArrivalSpec{
				Kind:       "mmpp",
				Mean:       40 * time.Millisecond,
				Burst:      3 * time.Millisecond,
				SwitchProb: 0.05,
			},
			Mix: []KernelMix{{Kernel: "mci", Weight: 1, MinN: 1e9, MaxN: 3e9}},
		},
		MaxConcurrent:     64,
		MaxInFlightTotal:  16,
		MaxQueuePerKernel: 8,
		// The MMPP spends half its time in the burst state, where demand is
		// ~10x capacity, so most of the offered load is legitimately shed —
		// and the ok/shed split tracks wall-clock machine speed (admission
		// watches real queues), swinging hard under e.g. the race detector.
		// The bounds are therefore wide: they pin down "work still lands
		// and shedding never becomes a full outage", and the hard contract
		// stays with Accounted/TypedFailures/OutcomesIn — nothing lost,
		// nothing untyped.
		Invariants: []Invariant{
			Accounted{},
			TypedFailures{},
			OutcomesIn{Allowed: []Outcome{OutcomeOK, OutcomeShed}},
			MinSuccess{Fraction: 0.02},
			ShedBounded{MaxFraction: 0.99},
		},
	},

	"replay-heavytail": {
		Name:        "replay-heavytail",
		Description: "Pareto (heavy-tailed) inter-arrivals over the plain wire transport; uncapped, so bursts queue but never fail",
		Transport:   TransportWire,
		Trace: TraceSpec{
			Events: 400,
			Arrivals: ArrivalSpec{
				Kind:  "pareto",
				Mean:  5 * time.Millisecond,
				Alpha: 1.3,
			},
			Mix: []KernelMix{{Kernel: "mci", Weight: 1, MinN: 5e8, MaxN: 2e9, Payload: 1 << 10}},
		},
		Invariants: []Invariant{
			Accounted{},
			TypedFailures{},
			OutcomesIn{Allowed: []Outcome{OutcomeOK}},
			MinSuccess{Fraction: 1},
			BoundedP99{Max: 10 * time.Second},
		},
	},

	"chaos-flap": {
		Name: "chaos-flap",
		Description: "one of two GPUs flaps three times under sustained load; breakers trip, reopen, and end closed, " +
			"failover keeps clients whole",
		Transport: TransportInProcess,
		Trace: TraceSpec{
			Events:   1600,
			Arrivals: ArrivalSpec{Kind: "poisson", Mean: 10 * time.Millisecond},
			Mix:      []KernelMix{{Kernel: "mci", Weight: 1, MinN: 3e9, MaxN: 5e9}},
		},
		BreakerThreshold:   1,
		BreakerOpenTimeout: time.Second,
		Chaos: Chaos{
			Flaps: []FlapSpec{{
				Device: 1,
				Schedule: faults.FlapSchedule{
					Delay:  3 * time.Second,
					Cycles: 3,
					Down:   1500 * time.Millisecond,
					Up:     2 * time.Second,
				},
			}},
		},
		Invariants: []Invariant{
			Accounted{},
			TypedFailures{},
			MinSuccess{Fraction: 0.9},
			BreakerRecovered{MinTransitions: 3},
			TransitionsComplete{},
		},
	},

	"chaos-link": {
		Name:        "chaos-link",
		Description: "the client link degrades mid-run (50ms RTT, 20% loss) and recovers; latency moves, correctness must not",
		Transport:   TransportWire,
		BaseLink:    netshape.Profile{RTT: 200 * time.Microsecond, BandwidthBps: 1e9},
		Trace: TraceSpec{
			Events:   400,
			Arrivals: ArrivalSpec{Kind: "poisson", Mean: 25 * time.Millisecond},
			Mix:      []KernelMix{{Kernel: "mci", Weight: 1, MinN: 5e8, MaxN: 2e9, Payload: 32 << 10}},
		},
		Chaos: Chaos{
			// Event-anchored: wire wall latency is not modeled, so a purely
			// modeled offset could fire before any traffic is on the link.
			Link: &LinkSpec{
				AfterEvent: 100,
				Duration:   4 * time.Second,
				Degraded:   netshape.Profile{RTT: 50 * time.Millisecond, BandwidthBps: 2e8, Loss: 0.2},
			},
		},
		Invariants: []Invariant{
			Accounted{},
			TypedFailures{},
			OutcomesIn{Allowed: []Outcome{OutcomeOK}},
			MinSuccess{Fraction: 1},
			BoundedP99{Max: 10 * time.Second},
			TransitionsComplete{},
		},
	},

	"chaos-connkill": {
		Name:        "chaos-connkill",
		Description: "live client connections are severed repeatedly; the retrying client must convert every kill into an eventual success",
		Transport:   TransportWire,
		Retry: &client.RetryPolicy{
			MaxAttempts: 8,
			BaseDelay:   5 * time.Millisecond,
			MaxDelay:    100 * time.Millisecond,
		},
		Trace: TraceSpec{
			Events:   500,
			Arrivals: ArrivalSpec{Kind: "poisson", Mean: 20 * time.Millisecond},
			Mix:      []KernelMix{{Kernel: "mci", Weight: 1, MinN: 5e8, MaxN: 2e9}},
		},
		Chaos: Chaos{
			// Event-anchored so every kill lands while connections carry
			// live streams.
			ConnKills: &ConnKillSpec{
				AfterEvent: 50,
				Every:      1500 * time.Millisecond,
				Kills:      6,
			},
		},
		Invariants: []Invariant{
			Accounted{},
			TypedFailures{},
			OutcomesIn{Allowed: []Outcome{OutcomeOK}},
			MinSuccess{Fraction: 1},
			TransitionsComplete{},
		},
	},

	"drain-midload": {
		Name:        "drain-midload",
		Description: "graceful drain halfway through the trace; in-flight work completes, later arrivals get the typed draining error",
		Transport:   TransportInProcess,
		Trace: TraceSpec{
			Events:   400,
			Arrivals: ArrivalSpec{Kind: "poisson", Mean: 25 * time.Millisecond},
			Mix:      []KernelMix{{Kernel: "mci", Weight: 1, MinN: 5e8, MaxN: 2e9}},
		},
		Chaos: Chaos{
			// Event-anchored halfway point: everything issued before the
			// drain completes ok, the rest gets the typed draining error.
			Drain: &DrainSpec{AfterEvent: 200, Timeout: 20 * time.Second},
		},
		Invariants: []Invariant{
			Accounted{},
			TypedFailures{},
			OutcomesIn{Allowed: []Outcome{OutcomeOK, OutcomeDraining}},
			MinSuccess{Fraction: 0.3},
			DrainClean{},
			TransitionsComplete{},
		},
	},

	"mux-storm": {
		Name:        "mux-storm",
		Description: "dense load over the multiplexed wire transport while a device flaps; streams share conns, failures stay typed",
		Transport:   TransportWire,
		MuxConns:    4,
		Trace: TraceSpec{
			Events:   1200,
			Arrivals: ArrivalSpec{Kind: "poisson", Mean: 10 * time.Millisecond},
			Mix:      []KernelMix{{Kernel: "mci", Weight: 1, MinN: 3e9, MaxN: 5e9}},
		},
		BreakerThreshold:   1,
		BreakerOpenTimeout: time.Second,
		Chaos: Chaos{
			// Fully event-driven: by event 300 the autoscaler has warm
			// runners on both devices and the mux streams are saturated,
			// and event-counted down/up windows guarantee the flap overlaps
			// in-flight work whatever the machine speed (wire wall latency
			// is not modeled).
			Flaps: []FlapSpec{{
				Device:     1,
				AfterEvent: 300,
				DownEvents: 150,
				UpEvents:   150,
				Schedule:   faults.FlapSchedule{Cycles: 2},
			}},
		},
		Invariants: []Invariant{
			Accounted{},
			TypedFailures{},
			MinSuccess{Fraction: 0.9},
			BreakerRecovered{MinTransitions: 2},
			TransitionsComplete{},
		},
	},

	"oob-lease-revoke": {
		Name: "oob-lease-revoke",
		Description: "zero-copy leases over the mux while a device flaps; each breaker-open revokes the leased arena " +
			"windows mid-load and clients must degrade to in-band transfer without surfacing a single error",
		Transport: TransportWire,
		MuxConns:  4,
		OOB:       true,
		Trace: TraceSpec{
			Events:   1200,
			Arrivals: ArrivalSpec{Kind: "poisson", Mean: 10 * time.Millisecond},
			// Every event carries a payload, so every stream wants a leased
			// window and the revocations always have victims.
			Mix: []KernelMix{{Kernel: "mci", Weight: 1, MinN: 3e9, MaxN: 5e9, Payload: 32 << 10}},
		},
		BreakerThreshold:   1,
		BreakerOpenTimeout: time.Second,
		Chaos: Chaos{
			// Same event-driven flap shape as mux-storm: by event 300 the
			// mux conns hold negotiated leases, and each of the two
			// breaker-open transitions revokes them with streams in flight.
			Flaps: []FlapSpec{{
				Device:     1,
				AfterEvent: 300,
				DownEvents: 150,
				UpEvents:   150,
				Schedule:   faults.FlapSchedule{Cycles: 2},
			}},
		},
		Invariants: []Invariant{
			Accounted{},
			TypedFailures{},
			MinSuccess{Fraction: 0.9},
			BoundedP99{Max: 10 * time.Second},
			BreakerRecovered{MinTransitions: 2},
			TransitionsComplete{},
			OOBServed{Min: 1},
			LeasesRevoked{Min: 1},
		},
	},

	"cluster-failover": {
		Name: "cluster-failover",
		Description: "one of two wire-joined hosts, one GPU each, shuts down at a fixed modeled time mid-load; the cluster " +
			"router hands its share to the survivor and the loss stays invisible to every client",
		Transport: TransportNodes,
		Hosts:     2,
		GPUs:      1,
		Trace: TraceSpec{
			Events:   300,
			Arrivals: ArrivalSpec{Kind: "poisson", Mean: 30 * time.Millisecond},
			Mix:      []KernelMix{{Kernel: "mci", Weight: 1, MinN: 5e8, MaxN: 2e9}},
		},
		Chaos: Chaos{
			// Time-anchored, unlike node-drain-handoff's event anchor: the
			// shutdown lands at 4 s of modeled time whatever has been issued.
			HostDown: &HostDownSpec{Host: 0, At: 4 * time.Second, Timeout: 20 * time.Second},
		},
		Invariants: []Invariant{
			Accounted{},
			TypedFailures{},
			OutcomesIn{Allowed: []Outcome{OutcomeOK}},
			MinSuccess{Fraction: 1},
			DrainClean{},
			TransitionsComplete{},
		},
	},

	"node-kill-midload": {
		Name: "node-kill-midload",
		Description: "three wire-joined kaasd nodes under sustained load; one is killed abruptly at peak — the control plane " +
			"must detect the death, fail in-flight work over, and keep routing around the corpse",
		Transport: TransportNodes,
		Hosts:     3,
		GPUs:      2,
		Trace: TraceSpec{
			Events:   600,
			Arrivals: ArrivalSpec{Kind: "poisson", Mean: 10 * time.Millisecond},
			Mix:      []KernelMix{{Kernel: "mci", Weight: 1, MinN: 5e8, MaxN: 2e9}},
		},
		Chaos: Chaos{
			// Event-anchored at the halfway point so the kill lands with
			// requests in flight on the dying node, whatever the machine
			// speed.
			NodeKill: &NodeKillSpec{Node: 2, AfterEvent: 300},
		},
		Invariants: []Invariant{
			Accounted{},
			TypedFailures{},
			MinSuccessExclShed{Fraction: 0.99},
			BoundedP99{Max: 10 * time.Second},
			FailedOver{Min: 1},
			TransitionsComplete{},
		},
	},

	"node-drain-handoff": {
		Name: "node-drain-handoff",
		Description: "two wire-joined kaasd nodes; one drains gracefully mid-load — gossip broadcasts the drain, routing hands " +
			"off to the survivor, and no caller ever sees an error",
		Transport: TransportNodes,
		Hosts:     2,
		GPUs:      2,
		Trace: TraceSpec{
			Events:   400,
			Arrivals: ArrivalSpec{Kind: "poisson", Mean: 15 * time.Millisecond},
			Mix:      []KernelMix{{Kernel: "mci", Weight: 1, MinN: 5e8, MaxN: 2e9}},
		},
		Chaos: Chaos{
			HostDown: &HostDownSpec{Host: 0, AfterEvent: 200, Timeout: 20 * time.Second},
		},
		Invariants: []Invariant{
			Accounted{},
			TypedFailures{},
			OutcomesIn{Allowed: []Outcome{OutcomeOK}},
			MinSuccess{Fraction: 1},
			DrainClean{},
			TransitionsComplete{},
		},
	},

	"noisy-neighbor": {
		Name: "noisy-neighbor",
		Description: "one aggressor tenant offers ~10x the victims' load into a saturated server; weighted fair queueing " +
			"must preserve the victims' success rate and tail latency while the sheds land on the aggressor",
		Transport: TransportInProcess,
		Trace: TraceSpec{
			// Inter-arrivals are hundreds of modeled milliseconds so the
			// open-loop replay can pace them in wall time (at the test
			// time scale that is ~200µs between timer fires, comfortably
			// above timer overhead even under the race detector). Tighter
			// spacing collapses into a machine-speed flood that lands
			// before the first cold start finishes, and then only queue
			// structure — not scheduling — decides the outcomes.
			Events: 650,
			Arrivals: ArrivalSpec{
				Kind: "poisson",
				Mean: 400 * time.Millisecond,
			},
			// The aggressor draws ~10x the weight of either victim, so
			// ~10/12 of the trace is its flood. Per-request device time is
			// 3-5 modeled seconds, so the aggressor's ~2.1/s offered rate
			// saturates its own in-flight cap while each victim's ~0.2/s
			// sits far below its fair third of capacity — fairness must
			// keep the victims whole.
			Mix: []KernelMix{
				{Kernel: "mci", Weight: 10, MinN: 3e11, MaxN: 5e11, Tenant: "aggressor"},
				{Kernel: "mci", Weight: 1, MinN: 3e11, MaxN: 5e11, Tenant: "victim-a"},
				{Kernel: "mci", Weight: 1, MinN: 3e11, MaxN: 5e11, Tenant: "victim-b"},
			},
		},
		MaxConcurrent:    64,
		MaxInFlightTotal: 8,
		// Per-tenant bounds do the isolating: the aggressor pins its
		// in-flight cap, overflows its own queue bound, and absorbs the
		// sheds, while the victims' thin streams fit inside their caps.
		// Weights are equal — the point is per-tenant flow queues, not a
		// privileged victim. The anti-neutering test runs this same spec
		// with the four tenant fields cleared: a request that finds the
		// server full then has no flow to wait in and is shed whoever sent
		// it, so the victim floors and the aggressor's shed share must
		// fail there.
		TenantWeights:        map[string]float64{"aggressor": 1, "victim-a": 1, "victim-b": 1},
		MaxInFlightPerTenant: 4,
		MaxQueuePerTenant:    8,
		StickinessBound:      4,
		Invariants: []Invariant{
			Accounted{},
			TypedFailures{},
			OutcomesIn{Allowed: []Outcome{OutcomeOK, OutcomeShed}},
			TenantMinSuccess{Tenant: "victim-a", Fraction: 0.95},
			TenantMinSuccess{Tenant: "victim-b", Fraction: 0.95},
			TenantBoundedP99{Tenant: "victim-a", Max: 10 * time.Second},
			TenantBoundedP99{Tenant: "victim-b", Max: 10 * time.Second},
			ShedsChargedTo{Tenant: "aggressor", MinShare: 0.9},
		},
	},

	"diurnal-scale-to-zero": {
		Name: "diurnal-scale-to-zero",
		Description: "sparse diurnal trace against scale-to-zero, the compiled-artifact cache, and predictive pre-warm; " +
			"idle capacity is released, repeat boots skip the JIT, and no invocation is lost to the churn",
		Transport: TransportInProcess,
		Trace: TraceSpec{
			// Mean inter-arrival gap (90s modeled) is 3x the keepalive
			// window, so most gaps scale the kernel to zero and every
			// boot after the first is a cache-hit reboot. Four diurnal
			// periods give the pre-warm estimator dense daytime stretches
			// to learn from and sparse nighttime stretches to predict.
			Events: 80,
			Arrivals: ArrivalSpec{
				Kind:      "diurnal",
				Mean:      90 * time.Second,
				Amplitude: 0.5,
				Period:    1800 * time.Second,
			},
			Mix: []KernelMix{{Kernel: "mci", Weight: 1, MinN: 5e8, MaxN: 2e9}},
		},
		// All modeled time, and every window is far above the worst-case
		// timer granularity (a few modeled seconds at the default time
		// scale), so reap/pre-warm/cache-hit counts clear their floors on
		// any machine: runners idle out after 30s, sweeps land every 10s,
		// and speculative boots fire 15s ahead of the predicted arrival.
		KeepAliveIdle:      30 * time.Second,
		KeepAliveSweep:     10 * time.Second,
		PreWarmLead:        15 * time.Second,
		ArtifactCacheBytes: 64 << 20,
		Invariants: []Invariant{
			Accounted{},
			TypedFailures{},
			OutcomesIn{Allowed: []Outcome{OutcomeOK}},
			MinSuccess{Fraction: 1},
			BoundedP99{Max: 10 * time.Second},
			ScaledToZero{MinReaps: 3},
			CacheWarmed{MinHits: 3},
			PreWarmed{Min: 1},
		},
	},
}
