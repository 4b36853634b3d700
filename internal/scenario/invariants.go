package scenario

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"kaas/internal/client"
	"kaas/internal/core"
	"kaas/internal/cplane"
	"kaas/internal/wire"
)

// Outcome classifies how one invocation ended. Everything the platform
// can legitimately do to a request maps to a named outcome; anything
// else is OutcomeUntyped, which the TypedFailures invariant treats as a
// lost-accounting bug.
type Outcome string

// Outcomes.
const (
	// OutcomeOK: the invocation succeeded.
	OutcomeOK Outcome = "ok"
	// OutcomeShed: admission control rejected it with the retryable
	// OVERLOADED contract.
	OutcomeShed Outcome = "shed"
	// OutcomeDraining: the server was draining or already shut down.
	OutcomeDraining Outcome = "draining"
	// OutcomeUnavailable: every candidate device was breaker-excluded,
	// failover ran out of healthy capacity (or the wire reported
	// UNAVAILABLE).
	OutcomeUnavailable Outcome = "unavailable"
	// OutcomeDeadline: the caller's deadline expired first.
	OutcomeDeadline Outcome = "deadline"
	// OutcomeUntyped: an error outside the platform's typed contract.
	OutcomeUntyped Outcome = "untyped"
)

// Classify maps an invocation error to its outcome by its wire code: a
// RemoteError's own, or core.ErrorCode of an in-process error. A code
// with no outcome is OutcomeUntyped — the failure class the harness
// exists to catch.
func Classify(err error) Outcome {
	if err == nil {
		return OutcomeOK
	}
	// The one in-process refinement: the wire reports a drain as plain
	// UNAVAILABLE, in process it can be told apart.
	if errors.Is(err, core.ErrDraining) || errors.Is(err, core.ErrServerClosed) {
		return OutcomeDraining
	}
	code := core.ErrorCode(err)
	var re *client.RemoteError
	if errors.As(err, &re) {
		code = re.Code
	}
	switch code {
	case wire.CodeOverloaded:
		return OutcomeShed
	case wire.CodeUnavailable:
		return OutcomeUnavailable
	case wire.CodeDeadlineExceeded:
		return OutcomeDeadline
	}
	return OutcomeUntyped
}

// Record is one classified invocation of a run.
type Record struct {
	// Index is the trace event index.
	Index int
	// Outcome is the classification of the invocation's result.
	Outcome Outcome
	// Latency is the wall-clock invocation latency.
	Latency time.Duration
	// Err holds the error text for non-OK outcomes (diagnostics only).
	Err string
	// Tenant is the normalized tenant of the trace event, so per-tenant
	// invariants can split outcomes by who offered the work.
	Tenant string
}

// RunData is everything the invariant checker may inspect about a
// finished run.
type RunData struct {
	// Seed is the scenario seed.
	Seed int64
	// Issued is how many trace events the replay dispatched.
	Issued int
	// Records holds one entry per issued invocation.
	Records []Record
	// Counts aggregates Records by outcome.
	Counts map[Outcome]int
	// Stats are the final server snapshots (one per platform; clusters
	// have several).
	Stats []core.Stats
	// ScriptedTransitions is the chaos transition count the spec
	// scripts; ObservedTransitions is what the injectors actually drove.
	ScriptedTransitions, ObservedTransitions int
	// BreakerTransitions sums the servers' device-breaker transitions.
	BreakerTransitions uint64
	// Drained reports whether a scripted drain/host-down ran; DrainErr
	// is its result.
	Drained  bool
	DrainErr error
	// Failover is the cluster router's dispatch-counter snapshot (nodes
	// transport only, nil elsewhere).
	Failover *cplane.RouterStats
}

// p99 returns the 99th-percentile latency of the OK records (0 if none).
func (d *RunData) p99() time.Duration {
	var ok []time.Duration
	for _, r := range d.Records {
		if r.Outcome == OutcomeOK {
			ok = append(ok, r.Latency)
		}
	}
	if len(ok) == 0 {
		return 0
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i] < ok[j] })
	return ok[rankIndex(len(ok), 0.99)]
}

// rankIndex is the nearest-rank percentile index (ceil(p*n)-1), which
// unlike truncation never under-reports the tail on small samples.
func rankIndex(n int, p float64) int {
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// firstUntyped returns the first untyped-error record, if any.
func (d *RunData) firstUntyped() (Record, bool) {
	for _, r := range d.Records {
		if r.Outcome == OutcomeUntyped {
			return r, true
		}
	}
	return Record{}, false
}

// Invariant is a pass/fail property of a finished run. Check returns nil
// when the property holds and a diagnostic error when it does not.
type Invariant interface {
	Name() string
	Check(d *RunData) error
}

// Accounted asserts that no invocation was lost: every issued trace
// event produced exactly one classified record. A request that vanished
// (no response, no typed error, no record) is the worst control-plane
// failure mode, so every scenario should carry this invariant.
type Accounted struct{}

// Name implements Invariant.
func (Accounted) Name() string { return "accounted" }

// Check implements Invariant.
func (Accounted) Check(d *RunData) error {
	if len(d.Records) != d.Issued {
		return fmt.Errorf("issued %d invocations but recorded %d outcomes", d.Issued, len(d.Records))
	}
	var total int
	for _, n := range d.Counts {
		total += n
	}
	if total != d.Issued {
		return fmt.Errorf("outcome counts sum to %d, want %d", total, d.Issued)
	}
	return nil
}

// TypedFailures asserts that every failed invocation failed inside the
// platform's typed error contract — OVERLOADED, draining, unavailable,
// or a deadline — never with an unclassified error. Chaos that surfaces
// raw transport or internal errors to callers fails here.
type TypedFailures struct{}

// Name implements Invariant.
func (TypedFailures) Name() string { return "typed-failures" }

// Check implements Invariant.
func (TypedFailures) Check(d *RunData) error {
	if n := d.Counts[OutcomeUntyped]; n > 0 {
		r, _ := d.firstUntyped()
		return fmt.Errorf("%d invocations failed outside the typed error contract (first: event %d: %s)",
			n, r.Index, r.Err)
	}
	return nil
}

// OutcomesIn asserts that every record's outcome is in the allowed set —
// e.g. a retry scenario allows only {ok}: every transient failure must
// have been retried into success; a drain scenario allows {ok, draining}.
type OutcomesIn struct{ Allowed []Outcome }

// Name implements Invariant.
func (o OutcomesIn) Name() string { return fmt.Sprintf("outcomes-in%v", o.Allowed) }

// Check implements Invariant.
func (o OutcomesIn) Check(d *RunData) error {
	allowed := make(map[Outcome]bool, len(o.Allowed))
	for _, a := range o.Allowed {
		allowed[a] = true
	}
	for out, n := range d.Counts {
		if n > 0 && !allowed[out] {
			return fmt.Errorf("%d invocations ended %q, outside the allowed set %v", n, out, o.Allowed)
		}
	}
	return nil
}

// MinSuccess asserts that at least Fraction of issued invocations
// succeeded. Use 1.0 for "chaos must be invisible to clients" scenarios
// (failover, retries) and lower bounds where shedding is the point.
type MinSuccess struct{ Fraction float64 }

// Name implements Invariant.
func (m MinSuccess) Name() string { return fmt.Sprintf("min-success(%.0f%%)", 100*m.Fraction) }

// Check implements Invariant.
func (m MinSuccess) Check(d *RunData) error {
	if d.Issued == 0 {
		return fmt.Errorf("no invocations issued")
	}
	got := float64(d.Counts[OutcomeOK]) / float64(d.Issued)
	if got < m.Fraction {
		return fmt.Errorf("success rate %.1f%% (%d/%d) below the %.1f%% floor",
			100*got, d.Counts[OutcomeOK], d.Issued, 100*m.Fraction)
	}
	return nil
}

// MinSuccessExclShed asserts that at least Fraction of the invocations
// admission control did not shed ended in success. Failover scenarios
// use it: shedding displaced load with the typed OVERLOADED contract is
// legitimate back-pressure, but work the cluster accepted must land —
// losing it to a dead node is exactly the failure the control plane
// exists to mask.
type MinSuccessExclShed struct{ Fraction float64 }

// Name implements Invariant.
func (m MinSuccessExclShed) Name() string {
	return fmt.Sprintf("min-success-excl-shed(%.0f%%)", 100*m.Fraction)
}

// Check implements Invariant.
func (m MinSuccessExclShed) Check(d *RunData) error {
	admitted := d.Issued - d.Counts[OutcomeShed]
	if admitted <= 0 {
		return fmt.Errorf("no invocations admitted (%d issued, all shed)", d.Issued)
	}
	got := float64(d.Counts[OutcomeOK]) / float64(admitted)
	if got < m.Fraction {
		return fmt.Errorf("success rate %.1f%% (%d ok of %d admitted) below the %.1f%% floor",
			100*got, d.Counts[OutcomeOK], admitted, 100*m.Fraction)
	}
	return nil
}

// FailedOver asserts the cluster router actually moved work between
// nodes at least Min times. A node-kill scenario where nothing failed
// over proves nothing — either the kill missed the load or the router
// never re-dispatched — so the headline claim ("survives node death
// mid-load") is only earned when this holds alongside the success floor.
type FailedOver struct{ Min uint64 }

// Name implements Invariant.
func (f FailedOver) Name() string { return fmt.Sprintf("failed-over(>=%d)", f.Min) }

// Check implements Invariant.
func (f FailedOver) Check(d *RunData) error {
	if d.Failover == nil {
		return fmt.Errorf("no router failover stats recorded (invariant needs the nodes transport)")
	}
	if d.Failover.FailedOver < f.Min {
		return fmt.Errorf("router failed over %d invocations, want at least %d (redispatches %d, budget exhausted %d)",
			d.Failover.FailedOver, f.Min, d.Failover.Redispatches, d.Failover.BudgetExhausted)
	}
	return nil
}

// BoundedP99 asserts that the admitted (successful) invocations kept a
// bounded 99th-percentile wall latency through the chaos. The bound is
// deliberately generous — it catches pathological stalls (lost wakeups,
// requests parked on a dead connection until a distant timeout), not
// ordinary jitter, so verdicts stay deterministic across machines.
type BoundedP99 struct{ Max time.Duration }

// Name implements Invariant.
func (b BoundedP99) Name() string { return fmt.Sprintf("p99-under(%v)", b.Max) }

// Check implements Invariant.
func (b BoundedP99) Check(d *RunData) error {
	if d.Counts[OutcomeOK] == 0 {
		return fmt.Errorf("no successful invocations to measure")
	}
	if p := d.p99(); p > b.Max {
		return fmt.Errorf("p99 of admitted invocations %v exceeds bound %v", p, b.Max)
	}
	return nil
}

// ShedBounded asserts that admission control shed at most MaxFraction of
// the offered load — overload protection should clip the excess, not
// reject everything.
type ShedBounded struct{ MaxFraction float64 }

// Name implements Invariant.
func (s ShedBounded) Name() string { return fmt.Sprintf("shed-under(%.0f%%)", 100*s.MaxFraction) }

// Check implements Invariant.
func (s ShedBounded) Check(d *RunData) error {
	if d.Issued == 0 {
		return fmt.Errorf("no invocations issued")
	}
	got := float64(d.Counts[OutcomeShed]) / float64(d.Issued)
	if got > s.MaxFraction {
		return fmt.Errorf("shed rate %.1f%% (%d/%d) above the %.1f%% ceiling",
			100*got, d.Counts[OutcomeShed], d.Issued, 100*s.MaxFraction)
	}
	return nil
}

// BreakerRecovered asserts the circuit-breaker lifecycle the scenario's
// device flaps model: breakers actually tripped (at least MinTransitions
// state changes were observed) and every breaker ended the run closed —
// the devices recovered and placement sees them again. A breaker stuck
// open after its device healed is exactly the regression this catches.
type BreakerRecovered struct{ MinTransitions uint64 }

// Name implements Invariant.
func (b BreakerRecovered) Name() string { return "breaker-recovered" }

// Check implements Invariant.
func (b BreakerRecovered) Check(d *RunData) error {
	if d.BreakerTransitions < b.MinTransitions {
		return fmt.Errorf("only %d breaker transitions observed, want at least %d (did the flaps reach the breaker?)",
			d.BreakerTransitions, b.MinTransitions)
	}
	for _, st := range d.Stats {
		for id, dev := range st.PerDevice {
			if dev.BreakerState != "" && dev.BreakerState != "closed" {
				return fmt.Errorf("device %s breaker ended %q, want closed", id, dev.BreakerState)
			}
		}
	}
	return nil
}

// DrainClean asserts the graceful-drain contract: the scripted drain ran,
// finished inside its timeout with no error (every in-flight invocation
// completed rather than being dropped), and the server ended with zero
// in-flight work.
type DrainClean struct{}

// Name implements Invariant.
func (DrainClean) Name() string { return "drain-clean" }

// Check implements Invariant.
func (DrainClean) Check(d *RunData) error {
	if !d.Drained {
		return fmt.Errorf("the scripted drain never ran")
	}
	if d.DrainErr != nil {
		return fmt.Errorf("drain did not complete cleanly: %v", d.DrainErr)
	}
	for _, st := range d.Stats {
		if st.InFlight != 0 {
			return fmt.Errorf("%d invocations still in flight after drain", st.InFlight)
		}
	}
	return nil
}

// TransitionsComplete asserts the chaos script ran to completion: the
// injectors drove exactly the scripted number of fault transitions. A
// schedule that silently lost cycles (leaked goroutine, early exit)
// weakens the scenario without failing it — this makes that loud.
type TransitionsComplete struct{}

// Name implements Invariant.
func (TransitionsComplete) Name() string { return "transitions-complete" }

// Check implements Invariant.
func (TransitionsComplete) Check(d *RunData) error {
	if d.ObservedTransitions != d.ScriptedTransitions {
		return fmt.Errorf("chaos drove %d transitions, scripted %d", d.ObservedTransitions, d.ScriptedTransitions)
	}
	return nil
}

// ScaledToZero asserts the keepalive reaper actually released idle
// device slots during the run — the scale-to-zero half of the cold-start
// story. A scenario that enables KeepAliveIdle but whose trace never
// leaves a runner idle long enough exercises nothing; this makes that
// loud. The bound is a floor, not an exact count: how many reaps land
// depends on where sweeps fall inside idle windows, which tracks timer
// granularity, so only "it happened at least this often" is stable
// across machines and seeds.
type ScaledToZero struct{ MinReaps uint64 }

// Name implements Invariant.
func (s ScaledToZero) Name() string { return fmt.Sprintf("scaled-to-zero(>=%d)", s.MinReaps) }

// Check implements Invariant.
func (s ScaledToZero) Check(d *RunData) error {
	var reaps uint64
	for _, st := range d.Stats {
		reaps += st.Reaps
	}
	if reaps < s.MinReaps {
		return fmt.Errorf("idle reaper released %d runners, want at least %d", reaps, s.MinReaps)
	}
	return nil
}

// CacheWarmed asserts the compiled-artifact cache converted repeat cold
// starts into cached-cold boots: at least MinHits cold starts after the
// first found their compiled kernel already cached and skipped the
// modeled JIT compile. Like
// ScaledToZero this is a floor — the exact hit count depends on how
// many scale-to-zero cycles the trace produces.
type CacheWarmed struct{ MinHits uint64 }

// Name implements Invariant.
func (c CacheWarmed) Name() string { return fmt.Sprintf("cache-warmed(>=%d)", c.MinHits) }

// Check implements Invariant.
func (c CacheWarmed) Check(d *RunData) error {
	var hits, misses uint64
	for _, st := range d.Stats {
		for _, ks := range st.PerKernel {
			hits += ks.CacheHits
			misses += ks.CacheMisses
		}
	}
	if hits < c.MinHits {
		return fmt.Errorf("artifact cache hit %d cold starts (missed %d), want at least %d hits", hits, misses, c.MinHits)
	}
	return nil
}

// OOBServed asserts the out-of-band data plane actually carried at
// least Min invocations: the client negotiated arena leases and moved
// payloads by handle instead of copying them through the frame. A
// scenario that enables OOB but whose traffic never leaves the in-band
// path exercises nothing — this makes that loud.
type OOBServed struct{ Min uint64 }

// Name implements Invariant.
func (o OOBServed) Name() string { return fmt.Sprintf("oob-served(>=%d)", o.Min) }

// Check implements Invariant.
func (o OOBServed) Check(d *RunData) error {
	var served uint64
	for _, st := range d.Stats {
		served += st.DataPlane.OOBInvocations
	}
	if served < o.Min {
		return fmt.Errorf("out-of-band path served %d invocations, want at least %d (did lease negotiation run?)", served, o.Min)
	}
	return nil
}

// LeasesRevoked asserts the lease-revocation path actually fired at
// least Min times — the chaos (breaker-open, drain) reclaimed leased
// arena windows mid-load, and the run's other invariants then prove the
// clients absorbed it: revoked leases must degrade to in-band transfer
// transparently, never surface as untyped copy-fallback errors.
type LeasesRevoked struct{ Min uint64 }

// Name implements Invariant.
func (l LeasesRevoked) Name() string { return fmt.Sprintf("leases-revoked(>=%d)", l.Min) }

// Check implements Invariant.
func (l LeasesRevoked) Check(d *RunData) error {
	var revoked uint64
	for _, st := range d.Stats {
		revoked += st.DataPlane.LeaseRevocations
	}
	if revoked < l.Min {
		return fmt.Errorf("only %d leases were revoked, want at least %d (did the chaos reach the arena?)", revoked, l.Min)
	}
	return nil
}

// tenantRecords splits d.Records by the named (normalized) tenant.
func (d *RunData) tenantRecords(tenant string) []Record {
	tenant = core.NormalizeTenant(tenant)
	var out []Record
	for _, r := range d.Records {
		if core.NormalizeTenant(r.Tenant) == tenant {
			out = append(out, r)
		}
	}
	return out
}

// TenantMinSuccess asserts that at least Fraction of one tenant's
// invocations succeeded. Noisy-neighbor scenarios use it on the victim
// tenants: fair queueing must preserve their share of capacity while an
// aggressor floods the server.
type TenantMinSuccess struct {
	Tenant   string
	Fraction float64
}

// Name implements Invariant.
func (t TenantMinSuccess) Name() string {
	return fmt.Sprintf("tenant-min-success(%s,%.0f%%)", t.Tenant, 100*t.Fraction)
}

// Check implements Invariant.
func (t TenantMinSuccess) Check(d *RunData) error {
	recs := d.tenantRecords(t.Tenant)
	if len(recs) == 0 {
		return fmt.Errorf("tenant %q issued no invocations", t.Tenant)
	}
	ok := 0
	for _, r := range recs {
		if r.Outcome == OutcomeOK {
			ok++
		}
	}
	if got := float64(ok) / float64(len(recs)); got < t.Fraction {
		return fmt.Errorf("tenant %q success rate %.1f%% (%d/%d) below the %.1f%% floor",
			t.Tenant, 100*got, ok, len(recs), 100*t.Fraction)
	}
	return nil
}

// TenantBoundedP99 asserts one tenant's successful invocations kept a
// bounded 99th-percentile wall latency — the victim-side half of the
// noisy-neighbor contract: an aggressor's backlog must not inflate the
// victims' tail beyond the bound.
type TenantBoundedP99 struct {
	Tenant string
	Max    time.Duration
}

// Name implements Invariant.
func (t TenantBoundedP99) Name() string {
	return fmt.Sprintf("tenant-p99-under(%s,%v)", t.Tenant, t.Max)
}

// Check implements Invariant.
func (t TenantBoundedP99) Check(d *RunData) error {
	var ok []time.Duration
	for _, r := range d.tenantRecords(t.Tenant) {
		if r.Outcome == OutcomeOK {
			ok = append(ok, r.Latency)
		}
	}
	if len(ok) == 0 {
		return fmt.Errorf("tenant %q has no successful invocations to measure", t.Tenant)
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i] < ok[j] })
	if p := ok[rankIndex(len(ok), 0.99)]; p > t.Max {
		return fmt.Errorf("tenant %q p99 %v exceeds bound %v", t.Tenant, p, t.Max)
	}
	return nil
}

// ShedsChargedTo asserts that at least MinShare of all shed outcomes
// were charged to the named tenant — the isolation half of the
// noisy-neighbor contract: the aggressor that offered the excess load
// absorbs the sheds, instead of spreading them across the victims.
// Vacuously passes when the run shed nothing.
type ShedsChargedTo struct {
	Tenant   string
	MinShare float64
}

// Name implements Invariant.
func (s ShedsChargedTo) Name() string {
	return fmt.Sprintf("sheds-charged-to(%s,>=%.0f%%)", s.Tenant, 100*s.MinShare)
}

// Check implements Invariant.
func (s ShedsChargedTo) Check(d *RunData) error {
	total, charged := 0, 0
	tenant := core.NormalizeTenant(s.Tenant)
	for _, r := range d.Records {
		if r.Outcome != OutcomeShed {
			continue
		}
		total++
		if core.NormalizeTenant(r.Tenant) == tenant {
			charged++
		}
	}
	if total == 0 {
		return nil // nothing shed, nothing to charge
	}
	if got := float64(charged) / float64(total); got < s.MinShare {
		return fmt.Errorf("tenant %q was charged %.1f%% of sheds (%d/%d), want at least %.1f%%",
			s.Tenant, 100*got, charged, total, 100*s.MinShare)
	}
	return nil
}

// PreWarmed asserts the predictive pre-warm pool booted at least Min
// speculative runners: the arrival-rate estimator learned the trace's
// idle gaps and spun capacity up ahead of predicted demand instead of
// eating a cold start on it. A floor for the same reason as the other
// two — predictions that land inside the skip window are legitimately
// dropped, so only a minimum is portable.
type PreWarmed struct{ Min int }

// Name implements Invariant.
func (p PreWarmed) Name() string { return fmt.Sprintf("pre-warmed(>=%d)", p.Min) }

// Check implements Invariant.
func (p PreWarmed) Check(d *RunData) error {
	var boots int
	for _, st := range d.Stats {
		boots += st.PreWarms
	}
	if boots < p.Min {
		return fmt.Errorf("pre-warm pool booted %d speculative runners, want at least %d", boots, p.Min)
	}
	return nil
}
