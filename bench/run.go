package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"kaas/internal/core"
)

// measurement is one reported value. N is the sample count behind a
// percentile.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is one workload's run as written to the result file.
type result struct {
	Workload  string                 `json:"workload"`
	Why       string                 `json:"why"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Invalid   []string               `json:"invalid,omitempty"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
}

// values collects metric values (and percentile sample counts) by name
// before they are matched against the declared metric lists.
type values struct {
	v map[string]float64
	n map[string]int
}

func newValues() *values { return &values{v: map[string]float64{}, n: map[string]int{}} }

func (m *values) set(name string, v float64) { m.v[name] = v }
func (m *values) setN(name string, v float64, n int) {
	m.v[name] = v
	m.n[name] = n
}

// setupReps is how many times a run builds the platform from nothing and
// takes its first reply; setup_s is their quiet quartile (see loadMetrics).
const setupReps = 51

// Phase lengths as shares of --seconds. The untraced run measures for all
// of it after a warm-up of a tenth (2 s on the nominal 20 s window); the
// traced run splits it between an untraced and a traced window of the
// same shape and the ladder.
const (
	warmShare        = 0.1
	traceBaseShare   = 0.3
	traceWindowShare = 0.4
	rungShare        = 0.01 // each of the ladder's ~25 rungs
)

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// setUp builds the env and takes one reply, returning how long that took.
// The op it sends is the largest of the trace's first deck, whatever order
// the seed dealt it in, so set-up always includes the largest buffers and
// lease and costs the same for every seed.
func setUp(w *workload, rec *recorder, trace []opSpec, seed int64, ops *opCounter) (*env, time.Duration, error) {
	first := &trace[0]
	for i := range trace[:min(len(trace), 10)] {
		if trace[i].class > first.class {
			first = &trace[i]
		}
	}
	t0 := time.Now()
	e, err := buildEnv(w, rec)
	if err != nil {
		return nil, 0, err
	}
	c := newCaller(e, seed, 0)
	if _, status := c.do(ops.Add(1), first); status != statusOK {
		e.close()
		return nil, 0, fmt.Errorf("first op: status %d: %v", status, c.mismatch)
	}
	return e, time.Since(t0), nil
}

// runWorkload runs one workload once, untraced or traced. smoke takes one
// set-up instead of setupReps.
func runWorkload(w *workload, seed int64, secs float64, traced, smoke bool, spanFile string) (*result, error) {
	res := &result{Workload: w.name, Why: w.why, Seed: seed, Seconds: secs, Traced: traced, Metrics: map[string]measurement{}}
	m := newValues()
	warm := seconds(secs * warmShare)
	var ops opCounter

	if !traced {
		trace := genTrace(w, seed, warm+seconds(secs))
		var e *env
		var setups []float64
		for i := 0; i < setupReps && (i == 0 || !smoke); i++ {
			if e != nil {
				e.close()
			}
			var took time.Duration
			var err error
			if e, took, err = setUp(w, nil, trace, seed, &ops); err != nil {
				return nil, err
			}
			setups = append(setups, took.Seconds())
		}
		defer e.close()
		runtime.GC()
		ph := runLoad(e, trace, seed, &ops, nil, warm, seconds(secs))
		m.setN("setup_s", percentile(setups, 25), len(setups))
		loadMetrics(w, &ph, m, res)
		res.Invalid = append(res.Invalid, commonGuards(w, m)...)
		fill(res, m, append(append([]metricDef{}, endToEnd...), everyRun...))
		return res, nil
	}

	// Untraced window of the traced pass's length and shape: the base the
	// tracing overhead is measured against.
	base := seconds(secs * traceBaseShare)
	baseTrace := genTrace(w, seed, warm+base)
	e, _, err := setUp(w, nil, baseTrace, seed, &ops)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	basePh := runLoad(e, baseTrace, seed, &ops, nil, warm, base)
	e.close()
	baseM := newValues()
	loadMetrics(w, &basePh, baseM, &result{})

	window := seconds(secs * traceWindowShare)
	trace := genTrace(w, seed, warm+window)
	rec := newRecorder()
	ops.Store(0)
	e, _, err = setUp(w, rec, trace, seed, &ops)
	if err != nil {
		return nil, err
	}
	defer e.close()
	runtime.GC()
	ph := runLoad(e, trace, seed, &ops, rec, warm, window)
	loadMetrics(w, &ph, m, res)
	m.set("trace.overhead_share", 1-ratio(m.v["throughput_ops_s"], baseM.v["throughput_ops_s"]))
	serverMetrics(e, ops.Load(), m)
	if err := runLadder(w, trace, seed, seconds(secs*rungShare), m.v); err != nil {
		return nil, err
	}
	spanMetrics(w, rec, &ph, m)
	res.Invalid = append(res.Invalid, commonGuards(w, m)...)
	res.Invalid = append(res.Invalid, signatureGuards(w, m)...)
	fill(res, m, perLayer())
	if spanFile != "" {
		if err := rec.writeJSON(spanFile); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	return res, nil
}

// fill copies the declared metrics out of m, so a run reports exactly the
// names its mode declares.
func fill(res *result, m *values, defs []metricDef) {
	for _, d := range defs {
		res.Metrics[d.name] = measurement{Value: m.v[d.name], Unit: d.unit, N: m.n[d.name]}
	}
}

// loadMetrics turns a phase's samples and process counters into the
// end-to-end, loadgen.*, proc.* and model.* figures.
//
// The box this runs on shares its cores with other tenants, who slow it
// for seconds at a time: whole-window means moved 25 % run to run, medians
// little less. Interference only ever slows a run down, so every timed
// end-to-end figure is computed per sub-window (the stretches between the
// sampler's readings) and the run reports the quiet quartile across them:
// the 25th percentile of a cost, the 75th of a rate. A change to the
// program moves every sub-window, so it still shows; what this hides is
// intermittent slowness, which the loadgen.* tail figures keep.
func loadMetrics(w *workload, ph *phase, m *values, res *result) {
	type stretch struct {
		done          float64 // successful ops that ended in it
		lat, overhead []float64
	}
	snaps := ph.proc.snaps
	stretches := make([]stretch, max(len(snaps)-1, 1))
	stretchOf := func(end int64) *stretch {
		i := sort.Search(len(snaps), func(i int) bool { return int64(snaps[i].at) > end }) - 1
		return &stretches[min(max(i, 0), len(stretches)-1)]
	}

	var ok, shed, untyped, failed int
	var victims, victimMiss int
	var payloadBytes float64
	var at, lat, modeled, share, lagAt, lag []float64
	var byClass [len(classBytes)][]float64
	for i := range ph.samples {
		s := &ph.samples[i]
		lagAt = append(lagAt, float64(s.end))
		lag = append(lag, float64(s.lag)/1e3)
		switch s.status {
		case statusOK:
			ok++
			stretchOf(s.end).done++
		case statusShed:
			shed++
			// Shedding the aggressor is the designed outcome of overload;
			// shedding anyone else is a failure.
			if s.tenant != aggressor {
				failed++
			}
		default:
			untyped++
			failed++
		}
		if s.tenant != 0 && s.tenant != aggressor {
			victims++
			if s.status != statusOK || s.latency() > sloLimit {
				victimMiss++
			}
		}
		if !s.timed() {
			continue
		}
		wall := float64(s.latency()) / 1e3 // us
		model := float64(s.serverNs) / w.scale / 1e3
		st := stretchOf(s.end)
		st.lat = append(st.lat, wall)
		st.overhead = append(st.overhead, wall-model)
		at = append(at, float64(s.end))
		lat = append(lat, wall)
		modeled = append(modeled, float64(s.serverNs)/1e6)
		share = append(share, ratio(model, wall))
		if s.class > 0 {
			byClass[s.class-1] = append(byClass[s.class-1], wall)
			payloadBytes += 2 * float64(classBytes[s.class-1])
		}
	}
	res.Attempted, res.Failed = len(ph.samples), failed
	res.Correct = ph.mismatch == nil
	if ph.mismatch != nil {
		res.Invalid = append(res.Invalid, "wrong output: "+ph.mismatch.Error())
	}

	var rate, allocs, allocBytes, cpu, p50, overhead []float64
	for i := range stretches {
		if i+1 >= len(snaps) {
			break
		}
		st, a, b := &stretches[i], snaps[i], snaps[i+1]
		if st.done == 0 || b.at-a.at < ph.elapsed/(2*subWindows) {
			continue // an empty stretch, or the sliver after the last boundary
		}
		rate = append(rate, st.done/(b.at-a.at).Seconds())
		allocs = append(allocs, float64(b.mallocs-a.mallocs)/st.done)
		allocBytes = append(allocBytes, float64(b.allocBytes-a.allocBytes)/st.done)
		cpu = append(cpu, float64(b.cpu-a.cpu)/1e3/st.done)
		if len(st.lat) > 0 {
			p50 = append(p50, median(st.lat))
			overhead = append(overhead, median(st.overhead))
		}
	}
	const quietCost, quietRate = 25, 75
	n := len(lat)
	m.setN("throughput_ops_s", percentile(rate, quietRate), ok)
	m.setN("latency_p50_us", percentile(p50, quietCost), n)
	m.setN("overhead_p50_us", percentile(overhead, quietCost), n)
	m.setN("proc.cpu_us_per_op", percentile(cpu, quietCost), ok)
	// Allocation counts do not depend on how fast the box runs.
	m.setN("allocs_per_op", median(allocs), ok)
	m.setN("alloc_bytes_per_op", median(allocBytes), ok)

	secs := ph.elapsed.Seconds()
	// windowedP99 pairs at[i] with lat[i], so it runs before lat is sorted.
	m.setN("loadgen.latency_p99w_us", windowedP99(at, lat, 0, float64(ph.elapsed), 10), n)
	m.setN("loadgen.sched_lag_p99_us", windowedP99(lagAt, lag, 0, float64(ph.elapsed), 10), len(lag))
	m.setN("loadgen.latency_p50_us", median(lat), n)
	m.setN("loadgen.latency_p99_us", percentileSorted(lat, 99), n)
	m.setN("loadgen.latency_p999_us", percentileSorted(lat, 99.9), n)
	m.setN("loadgen.throughput_ops_s", ratio(float64(ok), secs), ok)
	m.setN("model.modeled_p50_ms", median(modeled), n)
	m.setN("model.share_of_wall", median(share), n)

	m.set("loadgen.attempted", float64(len(ph.samples)))
	m.set("loadgen.succeeded", float64(ok))
	m.set("loadgen.shed", float64(shed))
	m.set("loadgen.failed_untyped", float64(untyped))
	m.set("loadgen.failed_share", ratio(float64(failed), float64(len(ph.samples))))
	m.set("loadgen.slo_miss_share", ratio(float64(victimMiss), float64(victims)))
	m.set("loadgen.outstanding_max", float64(ph.outstanding))
	for c, name := range classNames {
		m.setN("loadgen.p50_us."+name, median(byClass[c]), len(byClass[c]))
	}
	m.set("loadgen.payload_mb_s", ratio(payloadBytes/1e6, secs))
	if len(snaps) == 0 {
		return
	}
	first, last := snaps[0], snaps[len(snaps)-1]
	m.set("proc.mutex_wait_us_per_op", ratio(float64(last.mutexWait-first.mutexWait)/1e3, float64(ok)))
	m.set("proc.gc_pause_ms_per_s", ratio(float64(ph.proc.gcPause)/1e6, secs))
	m.set("proc.gc_cycles", float64(last.gcCycles-first.gcCycles))
	m.set("proc.goroutines_peak", float64(ph.proc.goroutines))
	m.set("proc.rss_peak_mb", float64(ph.proc.rssBytes)/1e6)
}

// serverMetrics reads the core.*, client.*, cplane.*, shm.slab_reuse_share
// and artifact.hit_share figures off the platform's own counters. They
// cover the env's whole life (first op, warm-up and window): a lease is
// granted once and reused, so a window-only delta would hide it. issued
// is how many ops the env was sent.
func serverMetrics(e *env, issued uint64, m *values) {
	var inv, cold, cacheHits, evictions, shed, queueNs float64
	var aggAdmitted, aggShed float64
	var dp core.DataPlaneStats
	var artHits, artMisses float64
	for _, st := range e.stats() {
		cold += float64(st.ColdStarts)
		evictions += float64(st.Evictions)
		shed += float64(st.Shed)
		for _, ks := range st.PerKernel {
			inv += float64(ks.Invocations)
			cacheHits += float64(ks.CacheHits)
			queueNs += float64(ks.PhasesWarm["queue"] + ks.PhasesCold["queue"] + ks.PhasesCachedCold["queue"])
		}
		if ts, ok := st.PerTenant[tenantNames[aggressor]]; ok {
			aggAdmitted += float64(ts.Admitted)
			aggShed += float64(ts.Shed)
		}
		dp.BatchDispatches += st.DataPlane.BatchDispatches
		dp.BatchedInvocations += st.DataPlane.BatchedInvocations
		dp.LeaseGrants += st.DataPlane.LeaseGrants
		dp.LeaseReuses += st.DataPlane.LeaseReuses
		dp.OOBBytes += st.DataPlane.OOBBytes
		dp.InBandBytes += st.DataPlane.InBandBytes
		if ac := st.ArtifactCache; ac != nil {
			artHits += float64(ac.Hits)
			artMisses += float64(ac.Misses)
		}
	}
	m.set("core.queue_wait_modeled_ms", ratio(queueNs/1e6, inv))
	m.set("core.cold_share", ratio(cold, inv))
	m.set("core.cold_starts", cold) // for the guards; not a declared metric
	m.set("core.cached_cold_share", ratio(cacheHits, cold))
	m.set("core.evictions", evictions)
	m.set("core.shed_share", ratio(shed, inv+shed))
	m.set("core.aggressor_shed_share", ratio(aggShed, aggAdmitted+aggShed))
	m.set("core.batch_dispatches", float64(dp.BatchDispatches))
	m.set("core.batch_size_mean", ratio(float64(dp.BatchedInvocations), float64(dp.BatchDispatches)))
	m.set("core.lease_grants", float64(dp.LeaseGrants))
	m.set("core.lease_reuses", float64(dp.LeaseReuses))
	m.set("core.oob_bytes", float64(dp.OOBBytes))
	m.set("core.inband_bytes", float64(dp.InBandBytes))
	m.set("shm.slab_reuse_share", ratio(float64(dp.LeaseReuses), float64(dp.LeaseGrants)))
	m.set("artifact.hit_share", ratio(artHits, artHits+artMisses))

	if e.router != nil {
		rs := e.router.Stats()
		m.set("client.attempts_per_op", ratio(float64(rs.Dispatches+rs.Redispatches), float64(issued)))
		m.set("cplane.dispatches", float64(rs.Dispatches))
		m.set("cplane.redispatches", float64(rs.Redispatches))
		m.set("cplane.unroutable", float64(rs.Unroutable))
		alive := 0
		for _, mem := range e.observer.Members() {
			if mem.Alive {
				alive++
			}
		}
		m.set("cplane.members_alive", float64(alive))
		return
	}
	cm := e.clients[0].Metrics()
	m.set("client.attempts_per_op", ratio(float64(cm.Attempts), float64(issued)))
	m.set("client.retries", float64(cm.Retries))
	m.set("client.stale_conns", float64(cm.StaleConns))
}

// spanMetrics derives self times from the spans of the timed ops: a
// span's self time is its duration minus what its child spans cover. The
// residual compares one unloaded call with the sum of the ladder's rungs.
func spanMetrics(w *workload, rec *recorder, ph *phase, m *values) {
	root := rec.durations(spanClientInvoke)
	resident := rec.durations(spanServerResident)
	cost := rec.durations(spanKernelCost)
	exec := rec.durations(spanKernelExecute)
	var clientSelf, residents, coreSelf []float64
	for i := range ph.samples {
		s := &ph.samples[i]
		r, ok := resident[s.op]
		if !s.timed() || !ok {
			continue
		}
		clientSelf = append(clientSelf, float64(root[s.op]-r)/1e3)
		residents = append(residents, float64(r)/1e3)
		coreSelf = append(coreSelf, float64(r-cost[s.op]-exec[s.op])/1e3)
	}
	n := len(residents)
	m.setN("client.self_us", median(clientSelf), n)
	m.setN("core.resident_us", median(residents), n)
	m.setN("core.self_us", median(coreSelf), n)

	// One op crosses the codec four times (request and reply, each encoded
	// once and decoded once), the transport once (what a List round trip
	// costs) and Server.Invoke once; behind a router, that too.
	rungs := m.v[wireOpUs] + m.v["client.list_rtt_us"] + m.v["core.invoke_inproc_us"]
	if w.cluster {
		rungs += m.v["cplane.route_self_us"]
	}
	unloaded := m.v["client.invoke_unloaded_us"]
	m.set("trace.unattributed_share", ratio(unloaded-rungs, unloaded))
}

// commonGuards are the validity checks every run makes.
func commonGuards(w *workload, m *values) []string {
	var bad []string
	if lag := m.v["loadgen.sched_lag_p99_us"]; lag > 10000 {
		bad = append(bad, fmt.Sprintf("loadgen.sched_lag_p99_us %.0f > 10000: the generator fell behind its schedule", lag))
	}
	if s := m.v["model.share_of_wall"]; s < w.modelBand[0] || s > w.modelBand[1] {
		bad = append(bad, fmt.Sprintf("model.share_of_wall %.4f outside [%g, %g]: the workload no longer stresses what it claims", s, w.modelBand[0], w.modelBand[1]))
	}
	if m.v["loadgen.succeeded"] == 0 {
		bad = append(bad, "no op succeeded")
	}
	return bad
}

// signatureGuards check, on the traced run's server counters, that each
// mechanism ran on its own workload and nowhere else.
func signatureGuards(w *workload, m *values) []string {
	var bad []string
	check := func(cond bool, format string, args ...any) {
		if cond {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	grants, batches := m.v["core.lease_grants"], m.v["core.batch_dispatches"]
	check(w.oob && grants == 0, "core.lease_grants is 0 on %s", w.name)
	check(!w.oob && grants > 0, "core.lease_grants is %.0f on %s, which has no arena", grants, w.name)
	check(w.name == "tenants-overload" && batches == 0, "core.batch_dispatches is 0 on %s", w.name)
	check(w.name != "tenants-overload" && batches > 0, "core.batch_dispatches is %.0f on %s, which does not batch", batches, w.name)
	check(w.name == "cold-churn" && m.v["core.cold_share"] < 0.6, "core.cold_share %.3f < 0.6 on %s", m.v["core.cold_share"], w.name)
	check(w.name == "null-mux" && m.v["core.cold_starts"] > 2, "more than 2 cold starts on %s", w.name)
	check(w.cluster && m.v["cplane.dispatches"] == 0, "cplane.dispatches is 0 on %s", w.name)
	check(!w.cluster && m.v["cplane.dispatches"] > 0, "cplane.dispatches is %.0f on %s, which has no router", m.v["cplane.dispatches"], w.name)
	return bad
}
