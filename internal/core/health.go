package core

import (
	"sort"

	"kaas/internal/breaker"
)

// KindHealth summarizes routable capacity for one device kind.
type KindHealth struct {
	// Devices counts devices of this kind on the host.
	Devices int `json:"devices"`
	// Eligible counts devices placement may currently use: not failed
	// and with a breaker that would admit a request.
	Eligible int `json:"eligible"`
	// OpenBreakers counts devices whose breaker is open (excluded from
	// placement until the open timeout elapses).
	OpenBreakers int `json:"openBreakers"`
}

// TenantHealth is the per-tenant slice of a Health summary: enough for
// cluster routing to skip a member one tenant has saturated without
// shipping the full stats document in every heartbeat.
type TenantHealth struct {
	// InFlight counts the tenant's admitted invocations executing now;
	// Queued counts its invocations waiting in fair-queue flows.
	InFlight int `json:"inFlight,omitempty"`
	Queued   int `json:"queued,omitempty"`
	// Saturated reports the tenant is at its in-flight cap or queue
	// bound on this host — a new request for it would queue behind a
	// full backlog or shed outright.
	Saturated bool `json:"saturated,omitempty"`
}

// Health is the compact, routing-oriented view of a server. The cluster
// control plane gossips it between nodes so peers can skip hosts that
// are draining, closed, or have no eligible device for a kernel's kind.
type Health struct {
	// Draining reports a graceful shutdown in progress.
	Draining bool `json:"draining,omitempty"`
	// Closed reports the server no longer accepts work.
	Closed bool `json:"closed,omitempty"`
	// InFlight counts admitted invocations currently executing.
	InFlight int `json:"inFlight"`
	// Shed counts admission-control rejections since startup.
	Shed uint64 `json:"shed"`
	// Kinds maps device-kind name to its capacity summary.
	Kinds map[string]KindHealth `json:"kinds,omitempty"`
	// Kernels lists the registered kernel names, sorted.
	Kernels []string `json:"kernels,omitempty"`
	// Tenants maps tenant name to its load summary; only tenants with
	// live load or a saturated bound are listed, keeping gossip small.
	Tenants map[string]TenantHealth `json:"tenants,omitempty"`
}

// Health returns the server's current routing-oriented health summary.
func (s *Server) Health() Health {
	h := Health{Kinds: make(map[string]KindHealth)}
	s.adm.health(&h)
	for _, d := range s.cfg.Host.Devices() {
		kind := d.Kind().String()
		kh := h.Kinds[kind]
		kh.Devices++
		if s.eligible(d) {
			kh.Eligible++
		}
		if s.breakers != nil && s.breakers.State(d.ID()) == breaker.Open {
			kh.OpenBreakers++
		}
		h.Kinds[kind] = kh
	}
	table := *s.table.Load()
	h.Kernels = make([]string, 0, len(table))
	for name, e := range table {
		h.Kernels = append(h.Kernels, name)
		h.Shed += e.metrics().shedTotal()
	}
	sort.Strings(h.Kernels)
	return h
}

// health fills admission's part of a Health summary in one section.
func (f *fairQueue) health(h *Health) {
	f.mu.Lock()
	defer f.mu.Unlock()
	h.Draining, h.Closed, h.InFlight = f.draining.Load(), f.closed.Load(), f.inFlight
	for name, t := range f.tenants {
		th := TenantHealth{
			InFlight: t.inFlight,
			Queued:   t.queued,
			Saturated: (f.cfg.MaxInFlightPerTenant > 0 && t.inFlight >= f.cfg.MaxInFlightPerTenant) ||
				(f.cfg.MaxQueuePerTenant > 0 && t.queued >= f.cfg.MaxQueuePerTenant),
		}
		if th.InFlight == 0 && th.Queued == 0 && !th.Saturated {
			continue
		}
		if h.Tenants == nil {
			h.Tenants = make(map[string]TenantHealth)
		}
		h.Tenants[name] = th
	}
}
