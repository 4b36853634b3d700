package core

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"kaas/internal/accel"
	"kaas/internal/artifact"
	"kaas/internal/metrics"
)

// LatencySummary condenses one latency histogram: observation count,
// mean, extremes, and the percentiles the paper's Fig. 7 reports.
type LatencySummary struct {
	// Count is the number of completed invocations observed.
	Count uint64
	// Mean is the average modeled latency.
	Mean time.Duration
	// Min and Max are the observed extremes.
	Min, Max time.Duration
	// P50, P95, P99 are estimated from the histogram buckets.
	P50, P95, P99 time.Duration
}

func summarize(h *metrics.Histogram) LatencySummary {
	return LatencySummary{
		Count: h.Count(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
}

// KernelStats is the per-kernel slice of a Stats snapshot.
type KernelStats struct {
	// Invocations counts accepted invocations (including failed ones).
	Invocations uint64
	// ColdStarts counts completed cold starts for this kernel (runner
	// boots that reached readiness; an aborted boot whose waiter
	// respawned counts once, not twice).
	ColdStarts uint64
	// CacheHits and CacheMisses count cold starts that found (or had to
	// compile and publish) the kernel's artifact in the compiled-kernel
	// cache. Both stay zero when no cache is configured.
	CacheHits, CacheMisses uint64
	// PreWarms counts runners booted speculatively by the pre-warm
	// predictor for this kernel.
	PreWarms uint64
	// Failovers counts device-failure retries.
	Failovers uint64
	// Errors counts invocations that returned an error.
	Errors uint64
	// Shed counts invocations rejected by admission control (queue
	// bound, in-flight cap, deadline-aware rejection, or draining).
	Shed uint64
	// InFlight is the number of invocations being served right now.
	InFlight int64
	// QueueDepth is the number of invocations waiting on a starting
	// runner right now.
	QueueDepth int64
	// Runners is the kernel's live runner count.
	Runners int
	// Warm, Cold, and CachedCold summarize the modeled latency
	// distributions split by start temperature: warm (runner reuse),
	// cold (full boot with compilation), cached-cold (boot that skipped
	// compilation on an artifact-cache hit).
	Warm, Cold, CachedCold LatencySummary
	// PhasesWarm, PhasesCold, and PhasesCachedCold are cumulative
	// modeled time per invocation phase (queue, spawn, runtime_init, ...).
	PhasesWarm, PhasesCold, PhasesCachedCold map[string]time.Duration
}

// TenantStats is the per-tenant slice of a Stats snapshot.
type TenantStats struct {
	// Weight is the tenant's fair-share weight in weighted fair dispatch
	// (1 when unconfigured).
	Weight float64
	// Admitted counts invocations admitted for this tenant.
	Admitted uint64
	// Shed counts invocations rejected by admission control and charged
	// to this tenant (its own caps, queue bounds, or deadline expiry
	// while queued).
	Shed uint64
	// InFlight is the number of the tenant's invocations being served
	// right now; Queued is how many wait in its fair-queue flows.
	InFlight, Queued int
	// Latency summarizes the tenant's modeled invocation latency.
	Latency LatencySummary
}

// DeviceStats is the per-device slice of a Stats snapshot.
type DeviceStats struct {
	// Kind is the device's accelerator kind name.
	Kind string
	// Runners is the number of live task runners placed on the device.
	Runners int
	// ActiveContexts and Slots describe context-slot occupancy.
	ActiveContexts, Slots int
	// QueueDepth is the number of cold starts waiting for a slot.
	QueueDepth int64
	// MemoryUsed is the current device memory allocation in bytes.
	MemoryUsed int64
	// ColdStarts counts device context creations.
	ColdStarts int
	// Evictions counts runners evicted for slot pressure.
	Evictions uint64
	// Reaps counts idle runners reaped from this device.
	Reaps uint64
	// BreakerState is the device's circuit-breaker state ("closed",
	// "open", "half-open"), or "" when breakers are disabled.
	BreakerState string
	// BreakerTransitions counts the device's breaker state changes.
	BreakerTransitions uint64
	// ComputeBusy is total modeled time the compute fabric was active.
	ComputeBusy time.Duration
	// SlotBusy is cumulative modeled time context slots were held — the
	// device-seconds scale-to-zero releases and always-warm pools pay.
	SlotBusy time.Duration
	// Uptime is modeled time since device creation.
	Uptime time.Duration
	// Utilization is the instantaneous compute utilization in [0, 1].
	Utilization float64
}

// DataPlaneStats snapshots the out-of-band data plane and the
// micro-batcher: lease-arena accounting, bytes moved by handle versus
// copied in-band, and batch coalescing totals.
type DataPlaneStats struct {
	// OOBInvocations counts invocations whose payload arrived through an
	// arena lease (moved by handle, zero-copy).
	OOBInvocations uint64
	// OOBBytes is the payload bytes moved by lease handle; InBandBytes is
	// the payload bytes copied through the wire protocol.
	OOBBytes, InBandBytes uint64
	// LeaseGrants, LeaseReuses, and LeaseRevocations snapshot the arena
	// pool's lifecycle counters (reuses are grants served from a pooled
	// slab without allocating).
	LeaseGrants, LeaseReuses, LeaseRevocations uint64
	// ActiveLeases is the number of live leases; LeaseBytesGranted the
	// bytes they hold; ArenaCapacity the pool's byte budget (0 =
	// unlimited). All zero when no arena is configured.
	ActiveLeases      int
	LeaseBytesGranted int64
	ArenaCapacity     int64
	// BatchDispatches counts coalesced device dispatches;
	// BatchedInvocations the invocations those dispatches carried. Both
	// zero when batching is off.
	BatchDispatches, BatchedInvocations uint64
}

// Stats is a snapshot of server state: the coarse totals plus per-kernel
// latency distributions and per-device occupancy tables.
type Stats struct {
	// Kernels is the number of registered kernels.
	Kernels int
	// Runners is the number of live task runners.
	Runners int
	// InFlight is the number of invocations currently being served.
	InFlight int
	// ColdStarts counts completed cold starts.
	ColdStarts int
	// PreWarms counts speculative runner boots by the pre-warm pool.
	PreWarms int
	// Failovers counts device-failure retries across all kernels.
	Failovers uint64
	// Evictions counts slot-pressure evictions across all devices.
	Evictions uint64
	// Reaps counts idle-runner reaps across all devices.
	Reaps uint64
	// Shed counts admission-control rejections across all kernels.
	Shed uint64
	// Draining reports whether the server is gracefully shutting down.
	Draining bool
	// RunnersPerDevice maps device IDs to live runner counts.
	RunnersPerDevice map[string]int
	// PerKernel holds per-kernel counters and latency summaries.
	PerKernel map[string]KernelStats
	// PerDevice holds per-device occupancy and utilization.
	PerDevice map[string]DeviceStats
	// PerTenant holds per-tenant admission counters and latency
	// summaries for every tenant that has invoked the server. Empty
	// until a request arrives (legacy callers appear as "default").
	PerTenant map[string]TenantStats
	// FairQueueing reports whether the tenant-aware weighted fair
	// dispatch layer is active.
	FairQueueing bool
	// Batching reports whether server-side micro-batching is active.
	Batching bool
	// DataPlane snapshots the out-of-band data plane and micro-batcher.
	DataPlane DataPlaneStats
	// ArtifactCache snapshots the compiled-kernel cache, or nil when the
	// server runs without one.
	ArtifactCache *artifact.Stats
}

// Stats returns current server statistics. It reads admission's books
// in one section, so Stats().InFlight, Σ PerKernel.InFlight and Σ
// PerTenant.InFlight agree, and then each runner pool in turn.
func (s *Server) Stats() Stats {
	table := *s.table.Load()
	st := Stats{
		Kernels:          len(table),
		RunnersPerDevice: make(map[string]int),
		PerKernel:        make(map[string]KernelStats, len(table)),
		PerDevice:        make(map[string]DeviceStats),
		FairQueueing:     s.adm.waits,
		Batching:         s.batcher != nil,
	}
	st.DataPlane = DataPlaneStats{
		OOBInvocations: s.dpMet.oobInvocations.Value(),
		OOBBytes:       s.dpMet.oobBytes.Value(),
		InBandBytes:    s.dpMet.inbandBytes.Value(),
	}
	if b := s.batcher; b != nil {
		st.DataPlane.BatchDispatches = b.dispatchC.Value()
		st.DataPlane.BatchedInvocations = b.batchedC.Value()
	}
	if p := s.arena.Load(); p != nil {
		as := p.Stats()
		st.DataPlane.LeaseGrants = as.Grants
		st.DataPlane.LeaseReuses = as.Reuses
		st.DataPlane.LeaseRevocations = as.Revocations
		st.DataPlane.ActiveLeases = as.Active
		st.DataPlane.LeaseBytesGranted = as.Granted
		st.DataPlane.ArenaCapacity = as.Capacity
	}
	s.adm.stats(&st, table)
	for name, e := range table {
		met := e.metrics()
		ks := KernelStats{
			Invocations:      met.invocations.Value(),
			ColdStarts:       met.coldStarts.Value(),
			CacheHits:        met.cacheHits.Value(),
			CacheMisses:      met.cacheMisses.Value(),
			PreWarms:         met.preWarms.Value(),
			Failovers:        met.failovers.Value(),
			Errors:           met.errors.Value(),
			Shed:             met.shedTotal(),
			InFlight:         st.PerKernel[name].InFlight,
			QueueDepth:       met.queueDepth.Value(),
			Runners:          e.runnerCount(),
			Warm:             summarize(met.latWarm),
			Cold:             summarize(met.latCold),
			CachedCold:       summarize(met.latCachedCold),
			PhasesWarm:       phaseTotals(met.phaseWarm),
			PhasesCold:       phaseTotals(met.phaseCold),
			PhasesCachedCold: phaseTotals(met.phaseCachedCold),
		}
		st.Runners += ks.Runners
		st.ColdStarts += int(ks.ColdStarts)
		st.PreWarms += int(ks.PreWarms)
		st.Failovers += ks.Failovers
		st.Shed += ks.Shed
		st.PerKernel[name] = ks
	}
	for _, d := range append(s.cfg.Host.Devices(), s.cfg.Host.CPU()) {
		ds := d.Stats()
		dm := s.devMet[d.ID()]
		dev := DeviceStats{
			Kind:           d.Kind().String(),
			ActiveContexts: ds.ActiveContexts,
			Slots:          d.Profile().Slots,
			MemoryUsed:     ds.MemoryUsed,
			ColdStarts:     ds.ColdStarts,
			ComputeBusy:    ds.ComputeBusy,
			SlotBusy:       ds.SlotBusy,
			Uptime:         ds.Uptime,
			Utilization:    d.Utilization(),
		}
		if dm != nil {
			dev.Runners = int(dm.runners.Value())
			dev.QueueDepth = dm.queueDepth.Value()
			dev.Evictions = dm.evictions.Value()
			dev.Reaps = dm.reaps.Value()
		}
		if dev.Runners > 0 {
			st.RunnersPerDevice[d.ID()] = dev.Runners
		}
		if s.breakers != nil {
			dev.BreakerState = s.breakers.State(d.ID()).String()
			if dm != nil {
				dev.BreakerTransitions = dm.breakerTransitionTotal()
			}
		}
		st.Evictions += dev.Evictions
		st.Reaps += dev.Reaps
		st.PerDevice[d.ID()] = dev
	}
	if s.cfg.Artifacts != nil {
		cs := s.cfg.Artifacts.Stats()
		st.ArtifactCache = &cs
	}
	return st
}

// stats fills admission's part of a Stats snapshot in one section: the
// in-flight books at every level, the drain state and the tenants.
func (f *fairQueue) stats(st *Stats, table map[string]*entry) {
	f.mu.Lock()
	defer f.mu.Unlock()
	st.InFlight = f.inFlight
	st.Draining = f.draining.Load()
	for name, e := range table {
		st.PerKernel[name] = KernelStats{InFlight: e.inFlight.Load()}
	}
	st.PerTenant = make(map[string]TenantStats, len(f.tenants))
	for name, t := range f.tenants {
		tm := t.metrics()
		st.PerTenant[name] = TenantStats{
			Weight:   t.weight,
			Admitted: tm.admitted.Value(),
			Shed:     tm.shedTotal(),
			InFlight: t.inFlight,
			Queued:   t.queued,
			Latency:  summarize(tm.latency),
		}
	}
}

// phaseTotals snapshots a phase accumulator map into durations, dropping
// phases that never occurred.
func phaseTotals(phases map[string]*metrics.Counter) map[string]time.Duration {
	out := make(map[string]time.Duration, len(phases))
	for name, c := range phases {
		if v := c.Value(); v > 0 {
			out[name] = time.Duration(v)
		}
	}
	return out
}

// WriteMetrics writes the server's metrics in the Prometheus text
// exposition format: everything the registry holds plus live per-device
// gauges (context occupancy, utilization, busy time, memory, energy)
// sampled at call time.
func (s *Server) WriteMetrics(w io.Writer) error {
	if err := s.reg.WritePrometheus(w); err != nil {
		return err
	}

	devices := append(s.cfg.Host.Devices(), s.cfg.Host.CPU())
	sort.Slice(devices, func(i, j int) bool { return devices[i].ID() < devices[j].ID() })

	families := []struct {
		name, typ, help string
		value           func(d deviceSample) float64
	}{
		{"kaas_device_active_contexts", "gauge", "Device contexts currently held.",
			func(d deviceSample) float64 { return float64(d.stats.ActiveContexts) }},
		{"kaas_device_slots", "gauge", "Device context slot capacity.",
			func(d deviceSample) float64 { return float64(d.slots) }},
		{"kaas_device_utilization", "gauge", "Instantaneous compute utilization in [0, 1].",
			func(d deviceSample) float64 { return d.util }},
		{"kaas_device_busy_seconds_total", "counter", "Modeled time the compute fabric was active.",
			func(d deviceSample) float64 { return d.stats.ComputeBusy.Seconds() }},
		{"kaas_device_slot_busy_seconds_total", "counter", "Modeled device-seconds context slots were held.",
			func(d deviceSample) float64 { return d.stats.SlotBusy.Seconds() }},
		{"kaas_device_memory_bytes", "gauge", "Device memory currently allocated.",
			func(d deviceSample) float64 { return float64(d.stats.MemoryUsed) }},
		{"kaas_device_cold_starts_total", "counter", "Device context creations (each paid RuntimeInit).",
			func(d deviceSample) float64 { return float64(d.stats.ColdStarts) }},
		{"kaas_device_energy_joules_total", "counter", "Modeled energy consumed by the device.",
			func(d deviceSample) float64 { return d.energy }},
	}

	samples := make([]deviceSample, len(devices))
	for i, d := range devices {
		samples[i] = deviceSample{
			id:     d.ID(),
			stats:  d.Stats(),
			slots:  d.Profile().Slots,
			util:   d.Utilization(),
			energy: d.Energy(),
		}
	}
	for _, f := range families {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
			return err
		}
		for _, d := range samples {
			if _, err := fmt.Fprintf(w, "%s{device=%q} %g\n", f.name, d.id, f.value(d)); err != nil {
				return err
			}
		}
	}

	// Lease-arena gauges are sampled live from the pool, like the device
	// gauges above, so scrape-time accounting always matches the arena.
	if p := s.arena.Load(); p != nil {
		as := p.Stats()
		leaseFamilies := []struct {
			name, typ, help string
			value           float64
		}{
			{"kaas_lease_active", "gauge", "Live arena leases.", float64(as.Active)},
			{"kaas_lease_bytes_granted", "gauge", "Bytes held by live arena leases.", float64(as.Granted)},
			{"kaas_lease_bytes_pooled", "gauge", "Bytes parked on the arena free lists.", float64(as.Pooled)},
			{"kaas_lease_grants_total", "counter", "Arena leases granted.", float64(as.Grants)},
			{"kaas_lease_reuses_total", "counter", "Lease grants served from a pooled slab without allocating.", float64(as.Reuses)},
			{"kaas_lease_revocations_total", "counter", "Arena leases revoked.", float64(as.Revocations)},
		}
		for _, f := range leaseFamilies {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %g\n",
				f.name, f.help, f.name, f.typ, f.name, f.value); err != nil {
				return err
			}
		}
	}
	return nil
}

// deviceSample is one device's live readings for WriteMetrics.
type deviceSample struct {
	id     string
	stats  accel.Stats
	slots  int
	util   float64
	energy float64
}

// MetricsHandler returns an HTTP handler serving WriteMetrics, mountable
// as a Prometheus scrape endpoint.
func (s *Server) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.WriteMetrics(w)
	})
}
