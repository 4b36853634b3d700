package cplane

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"kaas/internal/client"
	"kaas/internal/kernels"
	"kaas/internal/wire"
)

// RouterConfig configures a Router.
type RouterConfig struct {
	// Node supplies the membership and health view the router routes
	// on: a serving cluster node, or an observer Node (empty Addr, nil
	// Local) joined to the cluster from the client side.
	Node *Node
	// Budget is the shared cross-host re-dispatch budget. Every
	// failover spends one token, every success credits tokens back;
	// when the bucket is empty failovers stop and the last error
	// surfaces. Nil means unbounded.
	Budget *client.RetryBudget
	// Idempotent declares the routed workload safe to re-dispatch after
	// a connection-level failure, where the dead node may or may not
	// have executed the request. Typed pre-execution errors (the
	// wire.Retryable codes) re-dispatch regardless.
	Idempotent bool
	// DialOptions are applied to the clients the router opens to
	// members.
	DialOptions []client.Option
}

// RouterStats is a snapshot of the router's dispatch counters.
type RouterStats struct {
	// Dispatches counts invocations routed (first attempts).
	Dispatches uint64 `json:"dispatches"`
	// Redispatches counts cross-host failover attempts.
	Redispatches uint64 `json:"redispatches"`
	// FailedOver counts invocations that succeeded on a node other than
	// the one first picked.
	FailedOver uint64 `json:"failedOver"`
	// BudgetExhausted counts failovers skipped because the shared retry
	// budget was empty.
	BudgetExhausted uint64 `json:"budgetExhausted"`
	// Unroutable counts invocations that found no eligible node.
	Unroutable uint64 `json:"unroutable"`
	// TenantSkips counts picks that bypassed a member because the
	// invoking tenant had saturated it (per gossiped tenant health).
	TenantSkips uint64 `json:"tenantSkips,omitempty"`
}

// Router dispatches invocations across the cluster using the health
// view its Node gossips: it picks the least-loaded node that is alive,
// not draining, serves the kernel, and has an eligible device of the
// kernel's kind, and fails retryable typed errors over to the next
// healthy peer under the shared retry budget.
type Router struct {
	cfg RouterConfig

	dispatches      atomic.Uint64
	redispatches    atomic.Uint64
	failedOver      atomic.Uint64
	budgetExhausted atomic.Uint64
	unroutable      atomic.Uint64
	tenantSkips     atomic.Uint64

	mu     sync.Mutex
	routes map[string]*route // keyed by member address
	closed bool
}

// route is the router's state for one member address: the shared client
// it dispatches through and the router-local in-flight count the
// least-loaded pick compares. inflight is guarded by Router.mu.
type route struct {
	c        *client.Client
	inflight int
}

// NewRouter creates a router over the node's membership view.
func NewRouter(cfg RouterConfig) *Router {
	return &Router{cfg: cfg, routes: make(map[string]*route)}
}

// Close closes the router's member clients. The underlying Node is not
// closed; it may outlive the router.
func (r *Router) Close() {
	r.mu.Lock()
	r.closed = true
	routes := r.routes
	r.routes = make(map[string]*route)
	r.mu.Unlock()
	for _, rt := range routes {
		rt.c.Close()
	}
}

// Stats returns a snapshot of the router's dispatch counters.
func (r *Router) Stats() RouterStats {
	return RouterStats{
		Dispatches:      r.dispatches.Load(),
		Redispatches:    r.redispatches.Load(),
		FailedOver:      r.failedOver.Load(),
		BudgetExhausted: r.budgetExhausted.Load(),
		Unroutable:      r.unroutable.Load(),
		TenantSkips:     r.tenantSkips.Load(),
	}
}

// Register registers a library kernel on every live member, so a
// subsequent Invoke can land anywhere. Gossip then keeps late joiners
// in sync. It succeeds when at least one member accepted the
// registration.
func (r *Router) Register(ctx context.Context, kernel string) error {
	var ok int
	var lastErr error
	for _, m := range r.cfg.Node.Members() {
		if m.Addr == "" || !m.Alive {
			continue
		}
		r.mu.Lock()
		c := r.routeLocked(m.Addr).c
		r.mu.Unlock()
		if err := c.RegisterContext(ctx, kernel); err != nil {
			lastErr = fmt.Errorf("cplane: register %q on %s: %w", kernel, m.Node, err)
			continue
		}
		r.cfg.Node.noteKernel(m.Addr, kernel)
		ok++
	}
	if ok == 0 {
		if lastErr != nil {
			return lastErr
		}
		return fmt.Errorf("cplane: register %q: no live members", kernel)
	}
	return nil
}

// Invoke dispatches one invocation, failing over across members until
// it succeeds, the candidates run out, or the retry budget does.
func (r *Router) Invoke(ctx context.Context, kernel string, params kernels.Params, data []byte) (*client.Result, error) {
	return r.InvokeTenant(ctx, "", kernel, params, data)
}

// InvokeTenant is Invoke with a tenant identity: the tenant rides the
// wire header for server-side fair queueing, and the pick prefers
// members the tenant has not saturated (per gossiped tenant health),
// falling back to saturated ones only when no other candidate exists.
func (r *Router) InvokeTenant(ctx context.Context, tenant, kernel string, params kernels.Params, data []byte) (*client.Result, error) {
	kind := kindOf(kernel)
	tried := make(map[string]bool)
	var lastErr error
	for hop := 0; ; hop++ {
		m, rt := r.pick(tenant, kernel, kind, tried)
		if rt == nil {
			if lastErr != nil {
				return nil, lastErr
			}
			r.unroutable.Add(1)
			return nil, fmt.Errorf("cplane: no live node serves kernel %q", kernel)
		}
		if hop == 0 {
			r.dispatches.Add(1)
		} else {
			if r.cfg.Budget != nil && !r.cfg.Budget.Spend() {
				r.release(rt)
				r.budgetExhausted.Add(1)
				return nil, lastErr
			}
			r.redispatches.Add(1)
		}
		tried[m.Addr] = true
		res, err := r.dispatch(ctx, rt, tenant, kernel, params, data)
		if err == nil {
			if r.cfg.Budget != nil {
				r.cfg.Budget.Credit()
			}
			if hop > 0 {
				r.failedOver.Add(1)
			}
			return res, nil
		}
		lastErr = fmt.Errorf("cplane: node %s: %w", m.Node, err)
		if client.IsConnFailure(err) {
			// The node vanished mid-request: mark it down now rather
			// than waiting for missed heartbeats, so sibling
			// invocations stop picking it.
			r.cfg.Node.ReportUnreachable(m.Addr)
		}
		if ctx.Err() != nil || !r.redispatchable(err) {
			return nil, lastErr
		}
	}
}

// dispatch runs one attempt over a route pick claimed, releasing the
// claim when the attempt ends.
func (r *Router) dispatch(ctx context.Context, rt *route, tenant, kernel string, params kernels.Params, data []byte) (*client.Result, error) {
	defer r.release(rt)
	return rt.c.InvokeTenantContext(ctx, tenant, kernel, params, data)
}

// redispatchable decides whether a failed attempt may move to another
// node. A typed error whose code is wire.Retryable is always safe: the
// server reported it before executing the kernel. A connection-level
// failure is ambiguous — the request may have executed on the node that
// died — so it re-dispatches only for workloads declared idempotent.
// Everything else (deadline expiry, unknown kernel, internal errors)
// fails in place.
func (r *Router) redispatchable(err error) bool {
	var re *client.RemoteError
	if errors.As(err, &re) {
		return wire.Retryable(re.Code)
	}
	return r.cfg.Idempotent && client.IsConnFailure(err)
}

// pick selects the untried member with the least router-local in-flight
// load among those that are alive, not draining, serve the kernel, and
// have an eligible device of its kind, and claims it: the chosen route's
// in-flight count rises in the same lock section that compared the
// loads, so concurrent picks over tied members spread out instead of all
// taking the same winner. The caller releases the route (dispatch does).
// Ties break by node name so routing is deterministic. Members the
// invoking tenant has saturated (per gossiped tenant health) are skipped
// on a first pass and only reconsidered when no unsaturated candidate
// exists — a saturated member would queue or shed the tenant's request,
// but it still beats no member at all. It returns a nil route when no
// member qualifies; the returned member is read-only.
func (r *Router) pick(tenant, kernel, kind string, tried map[string]bool) (*Member, *route) {
	members := r.cfg.Node.peerView()
	if self := r.cfg.Node.selfMember(); self != nil {
		// A serving node routes to itself too. Observers, the usual
		// router backing, have no self row and copy nothing.
		members = append([]Member{*self}, members...)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	best := -1
	bestLoad := 0
	skippedSaturated := false
	for pass := 0; pass < 2 && best == -1; pass++ {
		for i := range members {
			m := &members[i]
			if m.Addr == "" || tried[m.Addr] || !m.Alive || m.Draining {
				continue
			}
			if !slices.Contains(m.Kernels, kernel) {
				continue
			}
			if kind != "" && m.Eligible[kind] == 0 {
				continue
			}
			if pass == 0 && tenant != "" && m.Tenants[tenant].Saturated {
				skippedSaturated = true
				continue
			}
			load := 0
			if rt := r.routes[m.Addr]; rt != nil {
				load = rt.inflight
			}
			if best == -1 || load < bestLoad ||
				(load == bestLoad && m.Node < members[best].Node) {
				best, bestLoad = i, load
			}
		}
		if pass == 0 && best != -1 && skippedSaturated {
			// Bypassed at least one saturated member in favor of an
			// unsaturated one (the fallback pass, by contrast, uses
			// saturated members and counts nothing).
			r.tenantSkips.Add(1)
		}
		if !skippedSaturated {
			break // second pass could not add candidates
		}
	}
	if best == -1 {
		return nil, nil
	}
	rt := r.routeLocked(members[best].Addr)
	rt.inflight++
	return &members[best], rt
}

// release gives back the in-flight claim pick took on rt.
func (r *Router) release(rt *route) {
	r.mu.Lock()
	rt.inflight--
	r.mu.Unlock()
}

// routeLocked returns (creating on first use) the route to one member
// address. After Close a new route's client is closed at once and not
// kept, so calls through it fail. The caller holds r.mu.
func (r *Router) routeLocked(addr string) *route {
	rt := r.routes[addr]
	if rt == nil {
		rt = &route{c: client.Dial(addr, r.cfg.DialOptions...)}
		if r.closed {
			rt.c.Close()
		} else {
			r.routes[addr] = rt
		}
	}
	return rt
}

// kernelKinds maps each library kernel's name to its device kind name,
// built once on first use.
var kernelKinds = sync.OnceValue(func() map[string]string {
	kinds := make(map[string]string)
	for _, k := range kernels.Suite() {
		kinds[k.Name()] = k.Kind().String()
	}
	return kinds
})

// kindOf resolves a library kernel's device kind name, or "" for
// kernels the library does not know (eligibility is then not checked).
func kindOf(kernel string) string {
	return kernelKinds()[kernel]
}
