package scenario

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"kaas/internal/accel"
	"kaas/internal/client"
	"kaas/internal/core"
	"kaas/internal/cplane"
	"kaas/internal/wire"
)

// testScale compresses modeled time 2000x so the full matrix stays fast.
const testScale = 2000

// TestScenarioMatrix replays every registered scenario with a fixed seed
// and requires every invariant to hold — the per-scenario regression
// table the CI scenario gate runs.
func TestScenarioMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario matrix skipped in short mode")
	}
	for _, name := range List() {
		name := name
		t.Run(name, func(t *testing.T) {
			// noisy-neighbor paces an open-loop trace in wall time (~200 µs
			// between arrivals): it runs alone, before the parallel group
			// starts, because the other scenarios beside it starve its
			// timers into the flood its spec warns about.
			if name != "noisy-neighbor" {
				t.Parallel()
			}
			spec, err := Lookup(name)
			if err != nil {
				t.Fatalf("Lookup: %v", err)
			}
			res, err := Run(context.Background(), spec, 1, testScale)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for _, v := range res.Verdicts {
				if !v.Pass {
					t.Errorf("invariant %s failed: %s", v.Invariant, v.Detail)
				}
			}
			if !res.Passed {
				t.Errorf("scenario %s did not pass (counts: %v)", name, res.Counts)
			}
			if res.Issued != res.Events {
				t.Errorf("issued %d of %d events", res.Issued, res.Events)
			}
			if len(res.Verdicts) != len(spec.Invariants) {
				t.Errorf("got %d verdicts for %d invariants", len(res.Verdicts), len(spec.Invariants))
			}
		})
	}
}

// TestScenarioDeterministicSurface runs one scenario twice with the same
// seed and requires the deterministic output surface to be byte-for-byte
// identical — the same property `kaasbench -scenario` CI reproducibility
// diffs — and a different seed to produce a different trace.
func TestScenarioDeterministicSurface(t *testing.T) {
	spec, err := Lookup("replay-burst")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	run := func(seed int64) *Result {
		t.Helper()
		res, err := Run(context.Background(), spec, seed, testScale)
		if err != nil {
			t.Fatalf("Run(seed=%d): %v", seed, err)
		}
		return res
	}
	a, b := run(7), run(7)
	aLines := strings.Join(a.DeterministicLines(), "\n")
	bLines := strings.Join(b.DeterministicLines(), "\n")
	if aLines != bLines {
		t.Errorf("same-seed runs diverged:\n--- run 1\n%s\n--- run 2\n%s", aLines, bLines)
	}
	if other := run(8); other.Fingerprint == a.Fingerprint {
		t.Errorf("seeds 7 and 8 produced the same trace fingerprint %s", a.Fingerprint)
	}
}

// TestScenarioFailingInvariantFailsRun wires an unsatisfiable invariant
// into a scenario and requires the run to FAIL — if the checker were
// neutered (verdicts ignored, Check never called), this test catches it.
func TestScenarioFailingInvariantFailsRun(t *testing.T) {
	spec, err := Lookup("replay-diurnal")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	spec.Invariants = []Invariant{
		Accounted{},
		BoundedP99{Max: time.Nanosecond}, // no real invocation is this fast
	}
	res, err := Run(context.Background(), spec, 1, testScale)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Passed {
		t.Fatal("run passed despite an unsatisfiable invariant — the checker is not wired in")
	}
	var failed bool
	for _, v := range res.Verdicts {
		if v.Invariant == (BoundedP99{Max: time.Nanosecond}).Name() && !v.Pass {
			failed = true
			if v.Detail == "" {
				t.Error("failing verdict carries no diagnostic detail")
			}
		}
	}
	if !failed {
		t.Error("the unsatisfiable invariant did not produce a failing verdict")
	}
	if !strings.Contains(strings.Join(res.DeterministicLines(), "\n"), "result: FAIL") {
		t.Error("deterministic output does not report FAIL")
	}
}

// TestScenarioNoisyNeighborAntiNeutering reruns the noisy-neighbor spec
// with its tenant knobs cleared and requires the per-tenant invariants to
// FAIL: with no flow to wait in, whoever arrives at a full server is
// shed, so the victims lose their success floors and the aggressor no
// longer absorbs ~all of the sheds. If this run passes, the scenario has
// been neutered — it no longer proves that WFQ is doing the isolating.
func TestScenarioNoisyNeighborAntiNeutering(t *testing.T) {
	if testing.Short() {
		t.Skip("anti-neutering run skipped in short mode")
	}
	spec, err := Lookup("noisy-neighbor")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	spec.TenantWeights = nil
	spec.MaxInFlightPerTenant, spec.MaxQueuePerTenant, spec.StickinessBound = 0, 0, 0
	res, err := Run(context.Background(), spec, 1, testScale)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Passed {
		t.Fatalf("noisy-neighbor passed with the tenant knobs cleared (counts: %v) — the scenario no longer proves isolation", res.Counts)
	}
	var tenantFailure bool
	for _, v := range res.Verdicts {
		if !v.Pass && (strings.HasPrefix(v.Invariant, "tenant-") || strings.HasPrefix(v.Invariant, "sheds-charged-to")) {
			tenantFailure = true
		}
	}
	if !tenantFailure {
		t.Error("no per-tenant invariant failed with the tenant knobs cleared — the floors are too loose to detect the regression")
	}
}

// TestScenarioCancel aborts a run mid-replay and requires a prompt,
// typed return instead of a hang.
func TestScenarioCancel(t *testing.T) {
	spec, err := Lookup("chaos-flap")
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, spec, 1, 200) // slow scale: the run outlives the cancel
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Run = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}

func TestLookupUnknownListsKnown(t *testing.T) {
	_, err := Lookup("no-such-scenario")
	if err == nil {
		t.Fatal("Lookup accepted an unknown scenario")
	}
	if !strings.Contains(err.Error(), "replay-diurnal") {
		t.Errorf("error %q does not list known scenarios", err)
	}
	if len(List()) < 6 {
		t.Errorf("registry has %d scenarios, want at least 6", len(List()))
	}
}

// TestGoldenMatchesRegistry runs no scenario: it requires the committed
// verdict golden to name exactly the registry's scenarios, in List
// order, each under its spec's transport — so a scenario added, renamed,
// deleted or moved to another transport without regenerating the golden
// fails tier-1, not only the CI gate that replays the whole matrix.
func TestGoldenMatchesRegistry(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "verdicts_seed1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	header := regexp.MustCompile(`^scenario (\S+): transport=(\S+) seed=1$`)
	var got []string
	for _, line := range strings.Split(string(raw), "\n") {
		m := header.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		got = append(got, m[1])
		spec, err := Lookup(m[1])
		if err != nil {
			t.Errorf("golden names %s: %v", m[1], err)
			continue
		}
		if Transport(m[2]) != spec.Transport {
			t.Errorf("golden runs %s on transport=%s, registry on %s", m[1], m[2], spec.Transport)
		}
	}
	if want := List(); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("golden scenarios = %v, registry = %v", got, want)
	}
}

// --- invariant checker unit tests: each invariant must detect its
// violation on crafted run data (the anti-neutering suite). ---

// passingData builds a RunData that satisfies every registry invariant.
func passingData() *RunData {
	d := &RunData{
		Issued: 4,
		Records: []Record{
			{Index: 0, Outcome: OutcomeOK, Latency: time.Millisecond},
			{Index: 1, Outcome: OutcomeOK, Latency: 2 * time.Millisecond},
			{Index: 2, Outcome: OutcomeOK, Latency: 3 * time.Millisecond},
			{Index: 3, Outcome: OutcomeShed, Latency: time.Microsecond},
		},
		Counts:              map[Outcome]int{OutcomeOK: 3, OutcomeShed: 1},
		ScriptedTransitions: 2,
		ObservedTransitions: 2,
		BreakerTransitions:  3,
		Drained:             true,
		Stats: []core.Stats{{
			PerDevice: map[string]core.DeviceStats{
				"gpu0": {BreakerState: "closed", BreakerTransitions: 3},
			},
		}},
	}
	return d
}

func TestInvariantsDetectViolations(t *testing.T) {
	cases := []struct {
		name    string
		inv     Invariant
		mutate  func(*RunData)
		passing bool
	}{
		{"accounted-ok", Accounted{}, nil, true},
		{"accounted-lost-record", Accounted{}, func(d *RunData) {
			d.Records = d.Records[:3]
		}, false},
		{"accounted-count-drift", Accounted{}, func(d *RunData) {
			d.Counts[OutcomeOK] = 1
		}, false},
		{"typed-ok", TypedFailures{}, nil, true},
		{"typed-untyped-error", TypedFailures{}, func(d *RunData) {
			d.Records[3] = Record{Index: 3, Outcome: OutcomeUntyped, Err: "write: broken pipe"}
			d.Counts = map[Outcome]int{OutcomeOK: 3, OutcomeUntyped: 1}
		}, false},
		{"outcomes-ok", OutcomesIn{Allowed: []Outcome{OutcomeOK, OutcomeShed}}, nil, true},
		{"outcomes-disallowed", OutcomesIn{Allowed: []Outcome{OutcomeOK}}, nil, false},
		{"min-success-ok", MinSuccess{Fraction: 0.75}, nil, true},
		{"min-success-below-floor", MinSuccess{Fraction: 0.8}, nil, false},
		{"min-success-excl-shed-ok", MinSuccessExclShed{Fraction: 0.99}, nil, true},
		{"min-success-excl-shed-hard-failures", MinSuccessExclShed{Fraction: 0.99}, func(d *RunData) {
			d.Records[3] = Record{Index: 3, Outcome: OutcomeUnavailable, Err: "unavailable"}
			d.Counts = map[Outcome]int{OutcomeOK: 3, OutcomeUnavailable: 1}
		}, false},
		{"failed-over-ok", FailedOver{Min: 1}, func(d *RunData) {
			d.Failover = &cplane.RouterStats{Dispatches: 4, Redispatches: 1, FailedOver: 1}
		}, true},
		{"failed-over-no-stats", FailedOver{Min: 1}, nil, false},
		{"failed-over-never-fired", FailedOver{Min: 1}, func(d *RunData) {
			d.Failover = &cplane.RouterStats{Dispatches: 4}
		}, false},
		{"p99-ok", BoundedP99{Max: time.Second}, nil, true},
		{"p99-stall", BoundedP99{Max: time.Second}, func(d *RunData) {
			d.Records[2].Latency = time.Minute
		}, false},
		{"shed-ok", ShedBounded{MaxFraction: 0.25}, nil, true},
		{"shed-storm", ShedBounded{MaxFraction: 0.25}, func(d *RunData) {
			d.Counts[OutcomeShed] = 3
			d.Counts[OutcomeOK] = 1
		}, false},
		{"breaker-ok", BreakerRecovered{MinTransitions: 3}, nil, true},
		{"breaker-never-tripped", BreakerRecovered{MinTransitions: 4}, nil, false},
		{"breaker-stuck-open", BreakerRecovered{MinTransitions: 3}, func(d *RunData) {
			d.Stats[0].PerDevice["gpu0"] = core.DeviceStats{BreakerState: "open", BreakerTransitions: 3}
		}, false},
		{"drain-ok", DrainClean{}, nil, true},
		{"drain-never-ran", DrainClean{}, func(d *RunData) { d.Drained = false }, false},
		{"drain-timed-out", DrainClean{}, func(d *RunData) {
			d.DrainErr = context.DeadlineExceeded
		}, false},
		{"drain-left-inflight", DrainClean{}, func(d *RunData) {
			st := d.Stats[0]
			st.InFlight = 2
			d.Stats[0] = st
		}, false},
		{"transitions-ok", TransitionsComplete{}, nil, true},
		{"transitions-lost-cycle", TransitionsComplete{}, func(d *RunData) {
			d.ObservedTransitions = 1
		}, false},
		{"scaled-to-zero-ok", ScaledToZero{MinReaps: 2}, func(d *RunData) {
			d.Stats[0].Reaps = 2
		}, true},
		{"scaled-to-zero-never-reaped", ScaledToZero{MinReaps: 2}, func(d *RunData) {
			d.Stats[0].Reaps = 1
		}, false},
		{"cache-warmed-ok", CacheWarmed{MinHits: 2}, func(d *RunData) {
			d.Stats[0].PerKernel = map[string]core.KernelStats{
				"mci": {CacheHits: 2, CacheMisses: 1},
			}
		}, true},
		{"cache-warmed-all-misses", CacheWarmed{MinHits: 2}, func(d *RunData) {
			d.Stats[0].PerKernel = map[string]core.KernelStats{
				"mci": {CacheHits: 0, CacheMisses: 3},
			}
		}, false},
		{"pre-warmed-ok", PreWarmed{Min: 1}, func(d *RunData) {
			d.Stats[0].PreWarms = 1
		}, true},
		{"pre-warmed-never-fired", PreWarmed{Min: 1}, nil, false},
		{"oob-served-ok", OOBServed{Min: 2}, func(d *RunData) {
			d.Stats[0].DataPlane.OOBInvocations = 2
		}, true},
		{"oob-served-all-inband", OOBServed{Min: 2}, func(d *RunData) {
			d.Stats[0].DataPlane.OOBInvocations = 1
			d.Stats[0].DataPlane.InBandBytes = 1 << 20
		}, false},
		{"leases-revoked-ok", LeasesRevoked{Min: 1}, func(d *RunData) {
			d.Stats[0].DataPlane.LeaseRevocations = 2
		}, true},
		{"leases-revoked-never-fired", LeasesRevoked{Min: 1}, nil, false},
		{"tenant-min-success-ok", TenantMinSuccess{Tenant: "victim", Fraction: 0.9}, func(d *RunData) {
			d.Records[0].Tenant = "victim"
			d.Records[1].Tenant = "victim"
			d.Records[3].Tenant = "noisy"
		}, true},
		{"tenant-min-success-starved", TenantMinSuccess{Tenant: "victim", Fraction: 0.9}, func(d *RunData) {
			d.Records[0].Tenant = "victim"
			d.Records[3].Tenant = "victim" // the shed lands on the victim: 1/2
		}, false},
		{"tenant-min-success-absent-tenant", TenantMinSuccess{Tenant: "ghost", Fraction: 0.5}, nil, false},
		{"tenant-min-success-default-normalized", TenantMinSuccess{Tenant: "", Fraction: 0.7}, nil, true},
		{"tenant-p99-ok", TenantBoundedP99{Tenant: "victim", Max: time.Second}, func(d *RunData) {
			d.Records[0].Tenant = "victim"
			d.Records[1].Tenant = "victim"
		}, true},
		{"tenant-p99-stall", TenantBoundedP99{Tenant: "victim", Max: time.Second}, func(d *RunData) {
			d.Records[2].Tenant = "victim"
			d.Records[2].Latency = time.Minute
		}, false},
		{"sheds-charged-ok", ShedsChargedTo{Tenant: "noisy", MinShare: 0.9}, func(d *RunData) {
			d.Records[3].Tenant = "noisy" // the only shed
		}, true},
		{"sheds-charged-spread", ShedsChargedTo{Tenant: "noisy", MinShare: 0.9}, nil, false},
		{"sheds-charged-vacuous", ShedsChargedTo{Tenant: "noisy", MinShare: 0.9}, func(d *RunData) {
			d.Records[3].Outcome = OutcomeOK // nothing shed, nothing to charge
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := passingData()
			if tc.mutate != nil {
				tc.mutate(d)
			}
			err := tc.inv.Check(d)
			if tc.passing && err != nil {
				t.Errorf("%s.Check = %v, want pass", tc.inv.Name(), err)
			}
			if !tc.passing && err == nil {
				t.Errorf("%s.Check passed on violating data — the invariant is neutered", tc.inv.Name())
			}
		})
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Outcome
	}{
		{"nil", nil, OutcomeOK},
		{"overloaded", fmt.Errorf("wrapped: %w", core.ErrOverloaded), OutcomeShed},
		{"draining", core.ErrDraining, OutcomeDraining},
		{"server-closed", core.ErrServerClosed, OutcomeDraining},
		{"unavailable", core.ErrUnavailable, OutcomeUnavailable},
		{"device-failed", fmt.Errorf("core: failover exhausted after 3 attempts for %q: %w", "mci", accel.ErrDeviceFailed), OutcomeUnavailable},
		{"context-released", accel.ErrContextReleased, OutcomeUnavailable},
		{"deadline", context.DeadlineExceeded, OutcomeDeadline},
		{"canceled", context.Canceled, OutcomeDeadline},
		{"unknown-kernel", core.ErrUnknownKernel, OutcomeUntyped},
		{"no-device", core.ErrNoDevice, OutcomeUntyped},
		{"raw", errors.New("write: broken pipe"), OutcomeUntyped},
		{"remote-overloaded", &client.RemoteError{Code: wire.CodeOverloaded}, OutcomeShed},
		{"remote-unavailable", &client.RemoteError{Code: wire.CodeUnavailable}, OutcomeUnavailable},
		{"remote-deadline", &client.RemoteError{Code: wire.CodeDeadlineExceeded}, OutcomeDeadline},
		{"remote-internal", &client.RemoteError{Code: wire.CodeInternal}, OutcomeUntyped},
		{"remote-lease-revoked", &client.RemoteError{Code: wire.CodeLeaseRevoked}, OutcomeUntyped},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Classify(tc.err); got != tc.want {
				t.Errorf("Classify(%v) = %q, want %q", tc.err, got, tc.want)
			}
			var re *client.RemoteError
			if tc.err == nil || errors.As(tc.err, &re) {
				return
			}
			// The same error as the wire delivers it classifies the same,
			// except that a drain, UNAVAILABLE on the wire, is told apart
			// only in process.
			remote := &client.RemoteError{Code: core.ErrorCode(tc.err)}
			want := tc.want
			if want == OutcomeDraining {
				want = OutcomeUnavailable
			}
			if got := Classify(fmt.Errorf("cplane: node a: %w", remote)); got != want {
				t.Errorf("Classify(%s RemoteError) = %q, want %q", remote.Code, got, want)
			}
		})
	}
}
