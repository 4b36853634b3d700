package kaas

import (
	"context"
	"fmt"
	"sync"

	"kaas/internal/artifact"
	"kaas/internal/core"
	"kaas/internal/wire"
)

// Cluster federates several platforms (hosts) behind one invocation API —
// the paper's federated-deployment setting (§1, §3.3): kernels are
// registered across nodes, clients invoke by name, and the cluster routes
// each invocation to the least-loaded host that serves the kernel. If one
// host cannot absorb the concurrent demand, additional hosts do (the
// horizontal-scalability story of §3.3).
type Cluster struct {
	mu        sync.Mutex
	platforms []*Platform
	inflight  []int
}

// NewCluster builds a cluster over the given platforms. Platforms should
// share a time scale so modeled durations are comparable.
func NewCluster(platforms ...*Platform) (*Cluster, error) {
	if len(platforms) == 0 {
		return nil, fmt.Errorf("kaas: cluster needs at least one platform")
	}
	for i, p := range platforms {
		if p == nil {
			return nil, fmt.Errorf("kaas: cluster platform %d is nil", i)
		}
	}
	copied := make([]*Platform, len(platforms))
	copy(copied, platforms)
	// Link the members' compiled-kernel caches (where configured, see
	// WithArtifactCache) so a kernel JIT-compiled on one host is a cache
	// hit on its peers: cross-node boots are cached-cold, not cold.
	for i, a := range copied {
		for _, b := range copied[i+1:] {
			artifact.Link(a.artifacts, b.artifacts)
		}
	}
	return &Cluster{
		platforms: copied,
		inflight:  make([]int, len(copied)),
	}, nil
}

// Size returns the number of federated hosts.
func (c *Cluster) Size() int { return len(c.platforms) }

// Register deploys a kernel on every host that has a device of its kind.
// It succeeds if at least one host accepted the kernel.
func (c *Cluster) Register(k Kernel) error {
	var registered int
	var lastErr error
	for _, p := range c.platforms {
		if err := p.Register(k); err != nil {
			lastErr = err
			continue
		}
		registered++
	}
	if registered == 0 {
		return fmt.Errorf("kaas: no host accepted kernel %q: %w", k.Name(), lastErr)
	}
	return nil
}

// RegisterByName deploys a built-in kernel across the cluster.
func (c *Cluster) RegisterByName(name string) error {
	k, err := KernelByName(name)
	if err != nil {
		return err
	}
	return c.Register(k)
}

// Invoke routes one invocation to the least-loaded host serving the
// kernel and returns its result, the report, and the index of the host
// that served it. When the picked host cannot take the work for a
// transient routing reason — it is draining, shut down, overloaded, or
// its devices of the kernel's kind failed or are breaker-excluded — the
// cluster fails the invocation over to the next-least-loaded serving
// host instead of surfacing the error, so one node leaving (the §3.3
// horizontal-scalability story) is invisible to callers as long as any
// other node can absorb the work. Non-routing errors (bad parameters,
// kernel failures) are returned from the first host that reported them.
func (c *Cluster) Invoke(ctx context.Context, name string, params Params, data []byte) (*Response, *Report, int, error) {
	tried := make(map[int]bool)
	var (
		lastIdx = -1
		lastErr error
	)
	for {
		idx, err := c.pick(name, tried)
		if err != nil {
			// No (further) host serves the kernel: report the last
			// transient failure if rerouting exhausted the cluster.
			if lastErr != nil {
				return nil, nil, lastIdx, lastErr
			}
			return nil, nil, -1, err
		}
		tried[idx] = true

		c.mu.Lock()
		c.inflight[idx]++
		c.mu.Unlock()
		resp, report, err := c.platforms[idx].Invoke(ctx, name, params, data)
		c.mu.Lock()
		c.inflight[idx]--
		c.mu.Unlock()

		if err == nil {
			return resp, report, idx, nil
		}
		lastIdx, lastErr = idx, fmt.Errorf("kaas: host %d: %w", idx, err)
		if !reroutable(err) || ctx.Err() != nil {
			return nil, nil, idx, lastErr
		}
	}
}

// reroutable reports whether a host error is a transient routing
// condition another host may not share, making cross-host failover safe:
// the request was rejected before any kernel executed. It is the rule
// cplane.Router applies to the same error's wire code.
func reroutable(err error) bool {
	return wire.Retryable(core.ErrorCode(err))
}

// pick selects the host with the fewest cluster-routed in-flight
// invocations among those that serve the kernel and could route it
// right now (not draining or closed, with at least one eligible device
// of the kernel's kind — a host whose every relevant breaker is open
// would only fail the invocation, so it gets none). Hosts already tried
// by this invocation are skipped. When no host is currently routable
// but some still serve the kernel, the least-loaded of those is picked
// anyway so the caller surfaces the host's own typed error (draining,
// closed, breakers open) rather than a generic routing failure.
func (c *Cluster) pick(name string, tried map[int]bool) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	best, fallback := -1, -1
	for i, p := range c.platforms {
		if tried[i] || !platformServes(p, name) {
			continue
		}
		if !p.server.Routable(name) {
			if fallback == -1 || c.inflight[i] < c.inflight[fallback] {
				fallback = i
			}
			continue
		}
		if best == -1 || c.inflight[i] < c.inflight[best] {
			best = i
		}
	}
	if best == -1 {
		best = fallback
	}
	if best == -1 {
		return -1, fmt.Errorf("kaas: no host serves kernel %q", name)
	}
	return best, nil
}

// platformServes reports whether the platform has the kernel registered.
func platformServes(p *Platform, name string) bool {
	for _, n := range p.Kernels() {
		if n == name {
			return true
		}
	}
	return false
}

// Stats returns per-host statistics.
func (c *Cluster) Stats() []Stats {
	out := make([]Stats, len(c.platforms))
	for i, p := range c.platforms {
		out[i] = p.Stats()
	}
	return out
}

// Close shuts down every host.
func (c *Cluster) Close() {
	for _, p := range c.platforms {
		p.Close()
	}
}
